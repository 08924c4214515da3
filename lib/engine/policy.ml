(* The compiled Schema.policy merged with the engine's default attempt
   budget into one executable record. Attempt numbering is the durable
   per-path counter already persisted in [Wstate.Running]: the ranked
   implementation codes partition the attempt axis into bands of
   [per_code] attempts each, so the code for any attempt — and hence
   which alternative a recovered engine must dispatch — is a pure
   function of the persisted counter. *)
type t = {
  codes : string list;  (* ranked codes: primary, alternatives, substitute *)
  per_code : int;  (* attempts allowed per code = 1 + retry count *)
  base_total : int;  (* failure-driven ceiling: primary + alternatives *)
  grand_total : int;  (* absolute ceiling, incl. the substitute band *)
  backoff_ms : int;
  jitter_ms : int;
  backoff_max_ms : int option;
  on_timeout : Ast.timeout_action option;  (* [None]: no timeout clause *)
  declared : bool;
}

let resolve (task : Schema.task) ~default_max_attempts =
  let p = task.Schema.policy in
  let primary = Option.value (Ast.impl_code task.Schema.impl) ~default:"" in
  if not p.Schema.p_declared then
    {
      codes = [ primary ];
      per_code = default_max_attempts;
      base_total = default_max_attempts;
      grand_total = default_max_attempts;
      backoff_ms = 0;
      jitter_ms = 0;
      backoff_max_ms = None;
      on_timeout = None;
      declared = false;
    }
  else begin
    let substitute =
      match p.Schema.p_on_timeout with Ast.Ta_substitute c -> [ c ] | _ -> []
    in
    let base = primary :: p.Schema.p_alternatives in
    let per = match p.Schema.p_retry with Some n -> 1 + n | None -> default_max_attempts in
    {
      codes = base @ substitute;
      per_code = per;
      base_total = per * List.length base;
      grand_total = per * (List.length base + List.length substitute);
      backoff_ms = p.Schema.p_backoff_ms;
      jitter_ms = p.Schema.p_jitter_ms;
      backoff_max_ms = p.Schema.p_backoff_max_ms;
      on_timeout = Option.map (fun _ -> p.Schema.p_on_timeout) p.Schema.p_timeout_ms;
      declared = true;
    }
  end

let declared rp = rp.declared

let band rp ~attempt = (attempt - 1) / rp.per_code

let code rp ~attempt =
  let band = min (band rp ~attempt) (List.length rp.codes - 1) in
  List.nth rp.codes band

(* Delay before dispatching [attempt]: the first attempt of every band
   is immediate; the k-th retry within a band waits base * 2^(k-1),
   capped. The shift is clamped so huge retry counts cannot overflow. *)
let backoff_ms rp ~attempt =
  let pos = ((attempt - 1) mod rp.per_code) + 1 in
  if pos <= 1 || rp.backoff_ms <= 0 then 0
  else begin
    let d = rp.backoff_ms * (1 lsl min 20 (pos - 2)) in
    match rp.backoff_max_ms with Some m -> min m d | None -> d
  end

(* The jitter is a pure hash of the identifying coordinates, NOT a draw
   from a runtime rng: rng draws would depend on scheduling interleaving
   and break same-seed reproducibility across schedules. [salt] is the
   engine-stable seed component, so distinct engines (and distinct
   seeds) spread differently while one run always reproduces itself. *)
let jitter_ms rp ~salt ~iid ~path ~attempt =
  if rp.jitter_ms <= 0 then 0
  else begin
    let h = ref 5381 in
    let mix s = String.iter (fun c -> h := ((!h * 33) + Char.code c) land 0x3FFFFFFF) s in
    mix salt;
    mix "\x00";
    mix iid;
    mix "\x00";
    List.iter (fun seg -> mix seg; mix "/") path;
    mix (string_of_int attempt);
    !h mod rp.jitter_ms
  end

type cause = Failure | Timeout

type decision =
  | Retry of { attempt : int; delay_ms : int; code : string; substituted : bool; cause : cause }
  | Give_up of string

(* [attempt] just failed. The substitute band lies beyond [base_total]
   and is only entered by a timeout jump, so the failure-driven ceiling
   depends on which side the counter is on. *)
let after_failure rp ~salt ~iid ~path ~attempt =
  let ceiling = if attempt > rp.base_total then rp.grand_total else rp.base_total in
  if attempt >= ceiling then Give_up (Printf.sprintf "gave up after %d attempts" attempt)
  else begin
    let next = attempt + 1 in
    (* the first attempt of a band is immediate: there is no delay to
       spread *)
    let delay_ms =
      match backoff_ms rp ~attempt:next with
      | 0 -> 0
      | base -> base + jitter_ms rp ~salt ~iid ~path ~attempt:next
    in
    Retry
      {
        attempt = next;
        delay_ms;
        code = code rp ~attempt:next;
        substituted = rp.declared && band rp ~attempt:next > band rp ~attempt;
        cause = Failure;
      }
  end

(* A jump lands on a band start, so it is never delayed. *)
let jump rp ~attempt =
  Retry { attempt; delay_ms = 0; code = code rp ~attempt; substituted = true; cause = Timeout }

let after_timeout rp ~salt ~iid ~path ~attempt =
  match rp.on_timeout with
  | None -> after_failure rp ~salt ~iid ~path ~attempt
  | Some Ast.Ta_abort -> Give_up "recovery timeout"
  | Some Ast.Ta_alternative ->
    let next = ((band rp ~attempt + 1) * rp.per_code) + 1 in
    if next <= rp.base_total then jump rp ~attempt:next
    else Give_up "recovery alternatives exhausted"
  | Some (Ast.Ta_substitute _) ->
    let start = rp.base_total + 1 in
    if start > attempt then jump rp ~attempt:start
    else
      (* already in the substitute band (the substitute itself timed
         out): a bounded retry within it, not a forward jump *)
      after_failure rp ~salt ~iid ~path ~attempt
