type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | List of t list
  | Pair of t * t

type obj = { cls : string; payload : t }

let obj ~cls payload = { cls; payload }

let rec enc buf v =
  match v with
  | Unit -> Wire.b_string buf "u"
  | Bool b ->
    Wire.b_string buf "b";
    Wire.b_bool buf b
  | Int n ->
    Wire.b_string buf "i";
    Wire.b_int buf n
  | Str s ->
    Wire.b_string buf "s";
    Wire.b_string buf s
  | List items ->
    Wire.b_string buf "l";
    Wire.b_list enc buf items
  | Pair (a, b) ->
    Wire.b_string buf "p";
    enc buf a;
    enc buf b

let rec dec d =
  match Wire.d_string d with
  | "u" -> Unit
  | "b" -> Bool (Wire.d_bool d)
  | "i" -> Int (Wire.d_int d)
  | "s" -> Str (Wire.d_string d)
  | "l" -> List (Wire.d_list dec d)
  | "p" ->
    let a = dec d in
    let b = dec d in
    Pair (a, b)
  | tag -> raise (Wire.Malformed ("unknown value tag " ^ tag))

let encode v = Wire.run enc v

let decode s = Wire.decode dec s

let enc_obj buf o =
  Wire.b_string buf o.cls;
  enc buf o.payload

let dec_obj d =
  let cls = Wire.d_string d in
  let payload = dec d in
  { cls; payload }

let encode_obj o = Wire.run enc_obj o

let decode_obj s = Wire.decode dec_obj s

let encode_bindings = Wire.(run (b_list (b_pair b_string enc_obj)))

let decode_bindings = Wire.(decode (d_list (d_pair d_string dec_obj)))

let rec pp ppf = function
  | Unit -> Format.pp_print_string ppf "()"
  | Bool b -> Format.pp_print_bool ppf b
  | Int n -> Format.pp_print_int ppf n
  | Str s -> Format.fprintf ppf "%S" s
  | List items ->
    Format.fprintf ppf "[%a]" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp) items
  | Pair (a, b) -> Format.fprintf ppf "(%a, %a)" pp a pp b

let pp_obj ppf o = Format.fprintf ppf "%s%a" o.cls pp o.payload
