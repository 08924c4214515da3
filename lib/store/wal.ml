(* Growable-array backing: an append is one store plus a counter bump
   (amortized — doubling copies on growth), with none of the cons-cell
   churn of the previous list representation, and [records] reads out in
   order without an O(n) reversal. *)
type 'a t = {
  name : string;
  mutable data : 'a array;
  mutable count : int;
  mutable appended_total : int;
}

let create ~name = { name; data = [||]; count = 0; appended_total = 0 }

(* A doubling repeats the log's own records in the new half, where the
   next appends overwrite them. [Array.make] of a major-heap size with a
   young record would force a minor collection (OCaml 5.1); a store that
   compacts and regrows its log again and again did that on every
   regrowth, which raised the minor collections on wide-fanout by half
   (EXPERIMENTS.md A21). [Array.append] allocates without one. *)
let grow t record =
  let capacity = Array.length t.data in
  if t.count = capacity then
    if capacity < 16 then begin
      let data = Array.make 16 record in
      Array.blit t.data 0 data 0 t.count;
      t.data <- data
    end
    else t.data <- Array.append t.data t.data

let append t record =
  grow t record;
  t.data.(t.count) <- record;
  t.count <- t.count + 1;
  t.appended_total <- t.appended_total + 1

let records t =
  let rec collect i acc = if i < 0 then acc else collect (i - 1) (t.data.(i) :: acc) in
  collect (t.count - 1) []

let length t = t.count

let rewrite t records =
  t.data <- Array.of_list records;
  t.count <- Array.length t.data

let appended_total t = t.appended_total
