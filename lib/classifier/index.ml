(* The open-addressed index of both flat tables ([Flow_table], the
   session table): linear probing over a power-of-two array of int
   cells, first-empty insert and backward-shift delete.  An entry packs
   a hash above a value in [1, 2^bits), so 0 is an empty cell and an
   entry holds its home.  Each owner keeps its cells, sizes them, probes
   them with its own key compare and charges, and re-inserts its
   entries into a new array when it grows. *)

type flat = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let flat n =
  let a = Bigarray.Array1.create Bigarray.Int Bigarray.C_layout n in
  Bigarray.Array1.fill a 0;
  a

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)
let pow2_at_least n = 1 lsl log2 ((2 * n) - 1)

(* An empty index of [pow2_at_least size] cells. *)
let make size = flat (pow2_at_least size)

let[@inline] cell cells i = Bigarray.Array1.unsafe_get cells i
let[@inline] set cells i e = Bigarray.Array1.unsafe_set cells i e
let[@inline] mask cells = Bigarray.Array1.dim cells - 1

(* The cell at [hash]'s home, for reading ahead. *)
let home cells hash = cell cells (hash land mask cells)

let rec insert_at cells mask e i =
  if cell cells i = 0 then set cells i e else insert_at cells mask e ((i + 1) land mask)

let insert cells ~bits ~hash v =
  insert_at cells (mask cells) ((hash lsl bits) lor v) (hash land mask cells)

(* Pull each later entry of the run into the hole unless its home lies
   cyclically between the hole and it. *)
let rec shift_back cells bits mask hole j =
  let e = cell cells j in
  if e = 0 then set cells hole 0
  else if (j - ((e lsr bits) land mask)) land mask >= (j - hole) land mask then begin
    set cells hole e;
    shift_back cells bits mask j ((j + 1) land mask)
  end
  else shift_back cells bits mask hole ((j + 1) land mask)

let rec remove_at cells bits mask v j =
  let e = cell cells j and next = (j + 1) land mask in
  if e <> 0 then
    if e land ((1 lsl bits) - 1) = v then shift_back cells bits mask j next
    else remove_at cells bits mask v next

(* Delete the entry of value [v] from [hash]'s run, if there. *)
let remove cells ~bits ~hash v =
  remove_at cells bits (mask cells) v (hash land mask cells)
