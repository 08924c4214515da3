(* With a [filler], every slot at or beyond [size] holds it, so the heap
   never keeps a popped element reachable. *)
type 'a t = {
  cmp : 'a -> 'a -> int;
  filler : 'a option;
  mutable data : 'a array;
  mutable size : int;
}

let create ~cmp = { cmp; filler = None; data = [||]; size = 0 }

let create_filled ~cmp ~filler = { cmp; filler = Some filler; data = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let grow t x =
  let capacity = Array.length t.data in
  if t.size = capacity then begin
    let next = max 16 (2 * capacity) in
    let data = Array.make next (Option.value t.filler ~default:x) in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end

(* Hole-based sifts: carry the element being placed in a local and slide
   the hole, one array write per level instead of a three-write swap,
   with a single final write. No allocation on either path. *)

let sift_up t i x =
  let data = t.data in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let p = Array.unsafe_get data parent in
    if t.cmp x p < 0 then begin
      Array.unsafe_set data !i p;
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set data !i x

let sift_down t i x =
  let data = t.data in
  let size = t.size in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= size then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < size && t.cmp (Array.unsafe_get data r) (Array.unsafe_get data l) < 0 then r
        else l
      in
      let cv = Array.unsafe_get data c in
      if t.cmp cv x < 0 then begin
        Array.unsafe_set data !i cv;
        i := c
      end
      else continue := false
    end
  done;
  Array.unsafe_set data !i x

let push t x =
  grow t x;
  let i = t.size in
  t.size <- i + 1;
  sift_up t i x

let peek t = if t.size = 0 then None else Some t.data.(0)

exception Empty

let top t = if t.size = 0 then raise Empty else Array.unsafe_get t.data 0

let pop_exn t =
  if t.size = 0 then raise Empty;
  let data = t.data in
  let top = Array.unsafe_get data 0 in
  let last = t.size - 1 in
  t.size <- last;
  let moved = Array.unsafe_get data last in
  (match t.filler with Some f -> Array.unsafe_set data last f | None -> ());
  if last > 0 then sift_down t 0 moved;
  top

let pop t = if t.size = 0 then None else Some (pop_exn t)

(* One pass moves the kept elements to the front in their array order,
   the vacated tail gets the filler, and Floyd's bottom-up heapify
   restores heap order in O(n). *)
let filter_inplace t keep =
  let data = t.data in
  let kept = ref 0 in
  for i = 0 to t.size - 1 do
    let x = Array.unsafe_get data i in
    if keep x then begin
      Array.unsafe_set data !kept x;
      incr kept
    end
  done;
  (match t.filler with
  | Some f -> Array.fill data !kept (t.size - !kept) f
  | None -> ());
  t.size <- !kept;
  for i = (!kept / 2) - 1 downto 0 do
    sift_down t i (Array.unsafe_get data i)
  done
