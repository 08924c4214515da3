type path = string list

type task_state =
  | Waiting of { attempt : int }
  | Running of { attempt : int; set : string; started : Sim.time; deadline : Sim.time }
  | Done of {
      attempt : int;
      output : string;
      kind : Ast.output_kind;
      objects : (string * Value.obj) list;
    }
  | Failed of string

type chosen = { c_set : string; c_inputs : (string * Value.obj) list }

type status =
  | Wf_running
  | Wf_done of { output : string; objects : (string * Value.obj) list }
  | Wf_failed of string

type meta = {
  m_script : string;
  m_root : string;
  m_inputs : (string * Value.obj) list;
  m_status : status;
}

let path_to_string path = String.concat "/" path

(* [Printf.sprintf "%0*d" width n] *)
let zero_pad width n =
  let digits = string_of_int n in
  let len = String.length digits in
  if len >= width then digits
  else begin
    let padded = Bytes.make width '0' in
    let sign = if n < 0 then 1 else 0 in
    Bytes.blit_string digits sign padded (width - len + sign) (len - sign);
    if n < 0 then Bytes.set padded 0 '-';
    Bytes.unsafe_to_string padded
  end

(* --- codecs --- *)

let enc_objects objects = Value.encode_bindings objects

let dec_objects d = Value.decode_bindings (Wire.d_string d)

let enc_objects_field objects = Wire.string (enc_objects objects)

let kind_tag = function
  | Ast.Outcome -> 0
  | Ast.Abort_outcome -> 1
  | Ast.Repeat_outcome -> 2
  | Ast.Mark -> 3

let kind_of_tag = function
  | 0 -> Ast.Outcome
  | 1 -> Ast.Abort_outcome
  | 2 -> Ast.Repeat_outcome
  | 3 -> Ast.Mark
  | n -> raise (Wire.Malformed (Printf.sprintf "bad output kind tag %d" n))

let encode_task_state = function
  | Waiting { attempt } -> Wire.string "w" ^ Wire.int attempt
  | Running { attempt; set; started; deadline } ->
    Wire.string "x" ^ Wire.int attempt ^ Wire.string set ^ Wire.int started ^ Wire.int deadline
  | Done { attempt; output; kind; objects } ->
    Wire.string "d" ^ Wire.int attempt ^ Wire.string output ^ Wire.int (kind_tag kind)
    ^ enc_objects_field objects
  | Failed reason -> Wire.string "f" ^ Wire.string reason

let decode_task_state s =
  Wire.decode
    (fun d ->
      match Wire.d_string d with
      | "w" -> Waiting { attempt = Wire.d_int d }
      | "x" ->
        let attempt = Wire.d_int d in
        let set = Wire.d_string d in
        let started = Wire.d_int d in
        let deadline = Wire.d_int d in
        Running { attempt; set; started; deadline }
      | "d" ->
        let attempt = Wire.d_int d in
        let output = Wire.d_string d in
        let kind = kind_of_tag (Wire.d_int d) in
        let objects = dec_objects d in
        Done { attempt; output; kind; objects }
      | "f" -> Failed (Wire.d_string d)
      | tag -> raise (Wire.Malformed ("bad task state tag " ^ tag)))
    s

let enc_status = function
  | Wf_running -> Wire.string "r"
  | Wf_done { output; objects } -> Wire.string "d" ^ Wire.string output ^ enc_objects_field objects
  | Wf_failed reason -> Wire.string "f" ^ Wire.string reason

let dec_status d =
  match Wire.d_string d with
  | "r" -> Wf_running
  | "d" ->
    let output = Wire.d_string d in
    let objects = dec_objects d in
    Wf_done { output; objects }
  | "f" -> Wf_failed (Wire.d_string d)
  | tag -> raise (Wire.Malformed ("bad status tag " ^ tag))

let encode_meta { m_script; m_root; m_inputs; m_status } =
  Wire.string m_script ^ Wire.string m_root ^ enc_objects_field m_inputs ^ enc_status m_status

let decode_meta s =
  Wire.decode
    (fun d ->
      let m_script = Wire.d_string d in
      let m_root = Wire.d_string d in
      let m_inputs = dec_objects d in
      let m_status = dec_status d in
      { m_script; m_root; m_inputs; m_status })
    s

(* an output name and its objects: a repeat, or one released mark *)
let enc_output (output, objects) = Wire.string output ^ enc_objects_field objects

let dec_output d =
  let output = Wire.d_string d in
  let objects = dec_objects d in
  (output, objects)

let encode_history (at, kind, detail) = Wire.int at ^ Wire.string kind ^ Wire.string detail

let decode_history s =
  Wire.decode
    (fun d ->
      let at = Wire.d_int d in
      let kind = Wire.d_string d in
      let detail = Wire.d_string d in
      (at, kind, detail))
    s

(* --- rows --- *)

type marks = (string * (string * Value.obj) list) list

type repeat = string * (string * Value.obj) list

type _ field =
  | Dir : int field
  | Meta : meta field
  | Reconf : string field
  | Task : string -> task_state field
  | Chosen : string -> chosen field
  | Marks : string -> marks field
  | Repeat : string -> repeat field
  | Timer_fired : string * string -> unit field
  | Timer_armed : string * string -> Sim.time field
  | Backoff : string -> (int * Sim.time) field
  | Compensated : string -> unit field
  | History : int -> string field

type row = Put : 'a field * 'a -> row | Delete : 'a field -> row

(* One durable directory row per instance, outside every instance's
   prefix; recovery sorts by its launch sequence number. *)
let dir_prefix = "wf:dir:"

let dir_iid key =
  if String.starts_with ~prefix:dir_prefix key then
    Some (String.sub key (String.length dir_prefix) (String.length key - String.length dir_prefix))
  else None

(* The per-instance keys are built on every persist, so each is blitted
   into one string: [wf:] ^ iid ^ tag ^ path ^ suffix. *)
let blit b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

let build iid tag path suffix =
  let b =
    Bytes.create
      (3 + String.length iid + String.length tag + String.length path + String.length suffix)
  in
  ignore (blit b (blit b (blit b (blit b (blit b 0 "wf:") iid) tag) path) suffix);
  Bytes.unsafe_to_string b

let instance_key iid suffix = build iid suffix "" ""

let path_key iid tag path = build iid tag path ""

let set_key iid tag path set = build iid tag path (":" ^ set)

let task_prefix iid = instance_key iid ":"

let history_prefix iid = instance_key iid ":h:"

let history_index iid =
  let prefix = history_prefix iid in
  let from = String.length prefix in
  fun k ->
    if String.starts_with ~prefix k then
      int_of_string_opt (String.sub k from (String.length k - from))
    else None

let key : type a. string -> a field -> string =
 fun iid -> function
  | Dir -> dir_prefix ^ iid
  | Meta -> instance_key iid ":meta"
  | Reconf -> instance_key iid ":reconf"
  | Task path -> path_key iid ":t:" path
  | Chosen path -> path_key iid ":c:" path
  | Marks path -> path_key iid ":m:" path
  | Repeat path -> path_key iid ":r:" path
  | Timer_fired (path, set) -> set_key iid ":timer:" path set
  | Timer_armed (path, set) -> set_key iid ":timerarm:" path set
  | Backoff path -> path_key iid ":b:" path
  | Compensated path -> path_key iid ":comp:" path
  | History n -> build iid ":h:" "" (zero_pad 9 n)

let key_history iid n = key iid (History n)

let encode_value : type a. a field -> a -> string =
 fun field v ->
  match field with
  | Dir -> string_of_int v
  | Meta -> encode_meta v
  | Reconf -> v
  | Task _ -> encode_task_state v
  | Chosen _ -> Wire.string v.c_set ^ enc_objects_field v.c_inputs
  | Marks _ -> Wire.list enc_output v
  | Repeat _ -> enc_output v
  | Timer_fired _ | Compensated _ -> "1"
  | Timer_armed _ -> string_of_int v
  | Backoff _ -> Wire.int (fst v) ^ Wire.int (snd v)
  | History _ -> v

let decode_int s =
  match int_of_string_opt s with Some n -> n | None -> raise (Wire.Malformed ("bad integer " ^ s))

let decode_value : type a. a field -> string -> a =
 fun field s ->
  match field with
  | Dir -> decode_int s
  | Meta -> decode_meta s
  | Reconf -> s
  | Task _ -> decode_task_state s
  | Chosen _ ->
    Wire.decode
      (fun d ->
        let c_set = Wire.d_string d in
        let c_inputs = dec_objects d in
        { c_set; c_inputs })
      s
  | Marks _ -> Wire.decode (Wire.d_list dec_output) s
  | Repeat _ -> Wire.decode dec_output s
  | Timer_fired _ -> ()
  | Compensated _ -> ()
  | Timer_armed _ -> decode_int s
  | Backoff _ ->
    Wire.decode
      (fun d ->
        let attempt = Wire.d_int d in
        let fire_at = Wire.d_int d in
        (attempt, fire_at))
      s
  | History _ -> s

let encode iid = function
  | Put (field, v) -> (key iid field, Some (encode_value field v))
  | Delete field -> (key iid field, None)

let decoded field read k =
  match read k with Some value -> Some (Put (field, decode_value field value)) | None -> None

(* [wf:I:<tag>:<path>] back to its row; an input set follows the path's
   last [:]. A field whose value is [()] is not read. *)
let decode iid ~read =
  let prefix = task_prefix iid in
  let from = String.length prefix in
  fun k ->
    let len = String.length k in
    if not (String.starts_with ~prefix k) then None
    else
      match String.index_from_opt k from ':' with
      | None -> (
        match String.sub k from (len - from) with
        | "meta" -> decoded Meta read k
        | "reconf" -> decoded Reconf read k
        | _ -> None)
      | Some i -> (
        let tail = String.sub k (i + 1) (len - i - 1) in
        match String.sub k from (i - from) with
        | "t" -> decoded (Task tail) read k
        | "c" -> decoded (Chosen tail) read k
        | "m" -> decoded (Marks tail) read k
        | "r" -> decoded (Repeat tail) read k
        | "b" -> decoded (Backoff tail) read k
        | "comp" -> Some (Put (Compensated tail, ()))
        | ("timer" | "timerarm") as tag -> (
          match String.rindex_opt tail ':' with
          | None -> None
          | Some j ->
            let path = String.sub tail 0 j in
            let set = String.sub tail (j + 1) (String.length tail - j - 1) in
            if tag = "timer" then Some (Put (Timer_fired (path, set), ()))
            else decoded (Timer_armed (path, set)) read k)
        | _ -> None)

let pp_task_state ppf = function
  | Waiting { attempt } -> Format.fprintf ppf "waiting(attempt %d)" attempt
  | Running { attempt; set; _ } -> Format.fprintf ppf "running(attempt %d, input %s)" attempt set
  | Done { output; kind; _ } ->
    Format.fprintf ppf "done(%s %s)" (Ast.output_kind_to_string kind) output
  | Failed reason -> Format.fprintf ppf "failed(%s)" reason

let pp_status ppf = function
  | Wf_running -> Format.pp_print_string ppf "running"
  | Wf_done { output; _ } -> Format.fprintf ppf "done(%s)" output
  | Wf_failed reason -> Format.fprintf ppf "failed(%s)" reason
