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

(* O(1)-per-launch durable directory: one key per instance, valued with
   the engine's launch sequence number (recovery sorts by it to rebuild
   launch order). *)
let dir_prefix = "wf:dir:"

let key_dir iid = dir_prefix ^ iid

let encode_dir_seq = string_of_int

let decode_dir_seq = int_of_string_opt

(* The per-instance keys are built on every persist, so they are plain
   concatenations rather than format strings (same bytes). *)
let instance_key iid suffix = String.concat "" [ "wf:"; iid; suffix ]

let path_key iid tag path = String.concat "" [ "wf:"; iid; tag; path_to_string path ]

let key_meta iid = instance_key iid ":meta"

let key_reconf iid = instance_key iid ":reconf"

let key_task iid path = path_key iid ":t:" path

let key_chosen iid path = path_key iid ":c:" path

let key_marks iid path = path_key iid ":m:" path

let key_repeat iid path = path_key iid ":r:" path

let key_timer iid path ~set =
  String.concat "" [ "wf:"; iid; ":timer:"; path_to_string path; ":"; set ]

let key_timer_arm iid path ~set =
  String.concat "" [ "wf:"; iid; ":timerarm:"; path_to_string path; ":"; set ]

let key_backoff iid path = path_key iid ":b:" path

let key_comp iid path = path_key iid ":comp:" path

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

let key_history iid n = instance_key iid (":h:" ^ zero_pad 9 n)

let task_prefix iid = instance_key iid ":"

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

let encode_chosen { c_set; c_inputs } = Wire.string c_set ^ enc_objects_field c_inputs

let decode_chosen s =
  Wire.decode
    (fun d ->
      let c_set = Wire.d_string d in
      let c_inputs = dec_objects d in
      { c_set; c_inputs })
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

let encode_marks marks =
  Wire.list (fun (output, objects) -> Wire.string output ^ enc_objects_field objects) marks

let decode_marks s =
  Wire.decode
    (Wire.d_list (fun d ->
         let output = Wire.d_string d in
         let objects = dec_objects d in
         (output, objects)))
    s

let encode_repeat (output, objects) = Wire.string output ^ enc_objects_field objects

let decode_repeat s =
  Wire.decode
    (fun d ->
      let output = Wire.d_string d in
      let objects = dec_objects d in
      (output, objects))
    s

(* a pending policy-backoff: which attempt waits, and when it fires *)
let encode_backoff (attempt, fire_at) = Wire.int attempt ^ Wire.int fire_at

let decode_backoff s =
  Wire.decode
    (fun d ->
      let attempt = Wire.d_int d in
      let fire_at = Wire.d_int d in
      (attempt, fire_at))
    s

let encode_history (at, kind, detail) = Wire.int at ^ Wire.string kind ^ Wire.string detail

let decode_history s =
  Wire.decode
    (fun d ->
      let at = Wire.d_int d in
      let kind = Wire.d_string d in
      let detail = Wire.d_string d in
      (at, kind, detail))
    s

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
