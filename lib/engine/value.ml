type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | List of t list
  | Pair of t * t

type obj = { cls : string; payload : t }

let obj ~cls payload = { cls; payload }

let rec enc v =
  match v with
  | Unit -> Wire.string "u"
  | Bool b -> Wire.string "b" ^ Wire.bool b
  | Int n -> Wire.string "i" ^ Wire.int n
  | Str s -> Wire.string "s" ^ Wire.string s
  | List items -> Wire.string "l" ^ Wire.list enc items
  | Pair (a, b) -> Wire.string "p" ^ enc a ^ enc b

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

let encode v = enc v

let decode s = Wire.decode dec s

let enc_obj o = Wire.string o.cls ^ enc o.payload

let dec_obj d =
  let cls = Wire.d_string d in
  let payload = dec d in
  { cls; payload }

let encode_obj o = enc_obj o

let decode_obj s = Wire.decode dec_obj s

let encode_bindings bindings = Wire.list (fun (name, o) -> Wire.string name ^ enc_obj o) bindings

let decode_bindings s =
  Wire.decode
    (Wire.d_list (fun d ->
         let name = Wire.d_string d in
         let o = dec_obj d in
         (name, o)))
    s

let rec pp ppf = function
  | Unit -> Format.pp_print_string ppf "()"
  | Bool b -> Format.pp_print_bool ppf b
  | Int n -> Format.pp_print_int ppf n
  | Str s -> Format.fprintf ppf "%S" s
  | List items ->
    Format.fprintf ppf "[%a]" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp) items
  | Pair (a, b) -> Format.fprintf ppf "(%a, %a)" pp a pp b

let pp_obj ppf o = Format.fprintf ppf "%s%a" o.cls pp o.payload
