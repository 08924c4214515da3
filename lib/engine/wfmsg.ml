(* Services are namespaced by the engine node that owns the dialogue:
   several engines can then coexist on one RPC fabric — and one host
   node can serve tasks for all of them — without service collisions. *)

let service_exec ~engine = "wf.exec@" ^ engine

let service_done ~engine = "wf.done@" ^ engine

let service_mark ~engine = "wf.mark@" ^ engine

type exec_req = {
  x_iid : string;
  x_path : string list;
  x_attempt : int;
  x_code : string;
  x_set : string;
  x_inputs : (string * Value.obj) list;
}

type report = {
  r_iid : string;
  r_path : string list;
  r_attempt : int;
  r_output : string;
  r_objects : (string * Value.t) list;
}

let b_path = Wire.(b_list b_string)

(* The inputs travel as one framed field, rendered before the outer
   [run] starts so that no [run] nests. *)
let enc_exec x =
  let inputs = Value.encode_bindings x.x_inputs in
  Wire.run
    (fun buf x ->
      Wire.b_string buf x.x_iid;
      b_path buf x.x_path;
      Wire.b_int buf x.x_attempt;
      Wire.b_string buf x.x_code;
      Wire.b_string buf x.x_set;
      Wire.b_string buf inputs)
    x

let dec_exec s =
  Wire.decode
    (fun d ->
      let x_iid = Wire.d_string d in
      let x_path = Wire.d_list Wire.d_string d in
      let x_attempt = Wire.d_int d in
      let x_code = Wire.d_string d in
      let x_set = Wire.d_string d in
      let x_inputs = Value.decode_bindings (Wire.d_string d) in
      { x_iid; x_path; x_attempt; x_code; x_set; x_inputs })
    s

let dec_value_bindings = Wire.(d_list (d_pair d_string (fun d -> Value.decode (d_string d))))

let b_named = Wire.(b_list (b_pair b_string b_string))

(* each object's value is a framed field of its own *)
let enc_report r =
  let objects = List.map (fun (name, v) -> (name, Value.encode v)) r.r_objects in
  Wire.run
    (fun buf r ->
      Wire.b_string buf r.r_iid;
      b_path buf r.r_path;
      Wire.b_int buf r.r_attempt;
      Wire.b_string buf r.r_output;
      b_named buf objects)
    r

let dec_report s =
  Wire.decode
    (fun d ->
      let r_iid = Wire.d_string d in
      let r_path = Wire.d_list Wire.d_string d in
      let r_attempt = Wire.d_int d in
      let r_output = Wire.d_string d in
      let r_objects = dec_value_bindings d in
      { r_iid; r_path; r_attempt; r_output; r_objects })
    s

let reply_ok = "ok"

let reply_no_impl = "no-impl"
