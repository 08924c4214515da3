type write = string * string option

type precord =
  | P_prepared of { txid : string; coordinator : string; writes : write list }
  | P_committed of string
  | P_aborted of string

type crecord =
  | C_incarnation
  | C_committed of { txid : string; participants : string list }
  | C_done of string

let service_read = "tx.read"

let service_prepare = "tx.prepare"

let service_commit = "tx.commit"

let service_abort = "tx.abort"

let service_status = "tx.status"

let service_prepare_ro = "tx.prepare-ro"

let enc_read_req = Wire.(pair string string)

let dec_read_req = Wire.(decode (d_pair d_string d_string))

let enc_read_reply = function
  | Ok v -> Wire.bool true ^ Wire.option Wire.string v
  | Error e -> Wire.bool false ^ Wire.string e

let dec_read_reply body =
  let open Wire in
  decode
    (fun d -> if d_bool d then Ok (d_option d_string d) else Error (d_string d))
    body

let b_writes = Wire.(b_list (b_pair b_string (b_option b_string)))

let enc_prepare_req ~txid ~coordinator ~read_keys ~writes =
  Wire.run
    (fun buf () ->
      Wire.b_string buf txid;
      Wire.b_string buf coordinator;
      Wire.(b_list b_string) buf read_keys;
      b_writes buf writes)
    ()

let dec_prepare_req body =
  let open Wire in
  decode
    (fun d ->
      let txid = d_string d in
      let coordinator = d_string d in
      let read_keys = d_list d_string d in
      let writes = d_list (d_pair d_string (d_option d_string)) d in
      (txid, coordinator, read_keys, writes))
    body

let enc_prepare_ro ~txid ~read_keys =
  Wire.run
    (fun buf () ->
      Wire.b_string buf txid;
      Wire.(b_list b_string) buf read_keys)
    ()

let dec_prepare_ro body =
  let open Wire in
  decode
    (fun d ->
      let txid = d_string d in
      let read_keys = d_list d_string d in
      (txid, read_keys))
    body

let enc_vote = Wire.bool

let dec_vote = Wire.(decode d_bool)

let enc_txid = Wire.string

let dec_txid = Wire.(decode d_string)

let enc_status_reply status =
  Wire.string (match status with `Committed -> "c" | `Aborted -> "a" | `Pending -> "p")

let dec_status_reply body =
  match Wire.(decode d_string) body with
  | "c" -> `Committed
  | "a" -> `Aborted
  | "p" -> `Pending
  | other -> raise (Wire.Malformed ("bad status: " ^ other))
