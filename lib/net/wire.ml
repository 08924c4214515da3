exception Malformed of string

type 'a embed = Buffer.t -> 'a -> unit

type decoder = { input : string; mutable pos : int }

(* Buffer-threaded core: every encoder appends into one shared buffer,
   so nested lists cost one pass instead of the quadratic copying that
   [^]/[String.concat] composition paid on each level of nesting. *)

(* Decimal digits straight into the buffer — no [string_of_int]
   intermediate on the frame-header hot path. [n] must be >= 0. *)
let rec add_decimal buf n =
  if n >= 10 then add_decimal buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

let b_frame buf payload =
  add_decimal buf (String.length payload);
  Buffer.add_char buf ':';
  Buffer.add_string buf payload

let b_string = b_frame

let rec decimal_width n = if n < 10 then 1 else 1 + decimal_width (n / 10)

let b_int buf n =
  if n < 0 then b_frame buf (string_of_int n)
  else begin
    (* frame header is the digit count of [n] itself; skip the payload
       string entirely *)
    add_decimal buf (decimal_width n);
    Buffer.add_char buf ':';
    add_decimal buf n
  end

let b_bool buf b = b_frame buf (if b then "t" else "f")

let b_pair ea eb buf (a, b) =
  ea buf a;
  eb buf b

let b_triple ea eb ec buf (a, b, c) =
  ea buf a;
  eb buf b;
  ec buf c

let b_list e buf items =
  b_int buf (List.length items);
  List.iter (fun item -> e buf item) items

let b_option e buf = function
  | None -> b_bool buf false
  | Some v ->
    b_bool buf true;
    e buf v

let b_result e buf = function
  | Ok v ->
    b_bool buf true;
    e buf v
  | Error reason ->
    b_bool buf false;
    b_string buf reason

(* One scratch buffer per domain, reused across [run] calls so steady-
   state encoding allocates only the final [Buffer.contents] string.
   The encoders of the system render each framed sub-encoding before
   their outer [run] starts, but any embed may still call [run] inside
   one, and that inner call would clear the bytes the outer one is
   writing. So the scratch carries an [in_use] guard: a re-entrant call
   falls back to a fresh buffer. Domain-local storage keeps parallel
   explore workers from sharing the scratch. *)
type scratch = { s_buf : Buffer.t; mutable s_in_use : bool }

let scratch_key = Domain.DLS.new_key (fun () -> { s_buf = Buffer.create 256; s_in_use = false })

let run e v =
  let s = Domain.DLS.get scratch_key in
  if s.s_in_use then begin
    let buf = Buffer.create 64 in
    e buf v;
    Buffer.contents buf
  end
  else begin
    s.s_in_use <- true;
    Buffer.clear s.s_buf;
    match e s.s_buf v with
    | () ->
      let out = Buffer.contents s.s_buf in
      s.s_in_use <- false;
      out
    | exception ex ->
      s.s_in_use <- false;
      raise ex
  end

let decoder input = { input; pos = 0 }

let at_end d = d.pos >= String.length d.input

let fail d msg = raise (Malformed (Printf.sprintf "%s at offset %d" msg d.pos))

(* The scanning loops live at toplevel (not nested in the decoders) so
   no per-call closure is allocated for them: a nested [let rec] that
   captures the decoder costs a heap block on every frame without
   flambda. Both return -1 on malformed input; the caller turns that
   into the positioned [Malformed] error. *)
let rec scan_colon input i limit =
  if i >= limit then -1
  else if String.unsafe_get input i = ':' then i
  else scan_colon input (i + 1) limit

(* Accumulates decimal digits in [first, stop). Caller guarantees the
   digit count cannot overflow (length headers and int payloads are
   capped at 18 and 17 digits before calling). *)
let rec scan_digits input i stop acc =
  if i >= stop then acc
  else begin
    let c = String.unsafe_get input i in
    if c >= '0' && c <= '9' then
      scan_digits input (i + 1) stop ((acc * 10) + (Char.code c - Char.code '0'))
    else -1
  end

(* Parses the [len ':'] frame header in place, advances [d.pos] to the
   payload start and returns the payload length — a bare int, so the
   header costs no allocation at all. [d.pos] is only moved on success,
   which keeps [fail]'s reported offset on the broken header. *)
let d_header d =
  let input = d.input in
  let n = String.length input in
  let colon = scan_colon input d.pos n in
  if colon < 0 then fail d "missing length separator";
  if colon = d.pos then fail d "bad length";
  (* 19+ digits can wrap the accumulator to a huge positive length whose
     bounds check then overflows too; no real frame is that long *)
  if colon - d.pos > 18 then fail d "bad length";
  let len = scan_digits input d.pos colon 0 in
  if len < 0 then fail d "bad length";
  if colon + 1 + len > n then fail d "truncated payload";
  d.pos <- colon + 1;
  len

let d_string d =
  let len = d_header d in
  let start = d.pos in
  let payload = String.sub d.input start len in
  d.pos <- start + len;
  payload

(* Ints are parsed in place — frame header, then decimal digits read
   straight out of the input — so the hot decode path allocates nothing
   (no [String.sub] payload, no [int_of_string] intermediate). *)
let d_int d =
  let input = d.input in
  let len = d_header d in
  let start = d.pos in
  if len = 0 then fail d "bad int";
  let stop = start + len in
  let neg = String.unsafe_get input start = '-' in
  let first = if neg then start + 1 else start in
  if first >= stop then fail d "bad int";
  if stop - first > 17 then begin
    (* 18+ digits can overflow 63-bit int accumulation; take the slow
       path, which also accepts min_int exactly as before *)
    match int_of_string_opt (String.sub input start len) with
    | Some n ->
      d.pos <- stop;
      n
    | None -> fail d "bad int"
  end
  else begin
    let n = scan_digits input first stop 0 in
    if n < 0 then fail d "bad int";
    d.pos <- stop;
    if neg then -n else n
  end

let d_bool d =
  match d_string d with
  | "t" -> true
  | "f" -> false
  | _ -> fail d "bad bool"

let d_pair da db d =
  let a = da d in
  let b = db d in
  (a, b)

let d_triple da db dc d =
  let a = da d in
  let b = db d in
  let c = dc d in
  (a, b, c)

let d_list da d =
  let n = d_int d in
  if n < 0 then fail d "negative list count";
  let rec take k acc = if k = 0 then List.rev acc else take (k - 1) (da d :: acc) in
  take n []

let d_option da d = if d_bool d then Some (da d) else None

let d_result da d = if d_bool d then Ok (da d) else Error (d_string d)

let decode da input =
  let d = decoder input in
  let v = da d in
  if not (at_end d) then fail d "trailing bytes";
  v
