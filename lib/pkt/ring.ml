type 'a t = {
  mutable buf : 'a array;  (* [||] until the first push *)
  mutable head : int;  (* slot of the oldest element *)
  mutable len : int;
  limit : int;
  dummy : 'a;
}

let create ~limit ~dummy () =
  if limit < 1 then invalid_arg "Ring.create: limit < 1";
  { buf = [||]; head = 0; len = 0; limit; dummy }

let length t = t.len
let is_empty t = t.len = 0
let limit t = t.limit

(* Double (up to [limit]), laying the elements out from slot 0. *)
let grow t =
  let cap = Array.length t.buf in
  let ncap =
    if cap = 0 then 1 else if cap > t.limit / 2 then t.limit else 2 * cap
  in
  let nbuf = Array.make ncap t.dummy in
  for i = 0 to t.len - 1 do
    let j = t.head + i in
    nbuf.(i) <- t.buf.(if j >= cap then j - cap else j)
  done;
  t.buf <- nbuf;
  t.head <- 0

let push t x =
  if t.len >= t.limit then false
  else begin
    if t.len = Array.length t.buf then grow t;
    let cap = Array.length t.buf in
    let j = t.head + t.len in
    t.buf.(if j >= cap then j - cap else j) <- x;
    t.len <- t.len + 1;
    true
  end

let peek t =
  if t.len = 0 then invalid_arg "Ring.peek: empty";
  t.buf.(t.head)

let pop t =
  if t.len = 0 then invalid_arg "Ring.pop: empty";
  let x = t.buf.(t.head) in
  t.buf.(t.head) <- t.dummy;
  let h = t.head + 1 in
  t.head <- (if h = Array.length t.buf then 0 else h);
  t.len <- t.len - 1;
  x

let clear t =
  let cap = Array.length t.buf in
  for i = 0 to t.len - 1 do
    let j = t.head + i in
    t.buf.(if j >= cap then j - cap else j) <- t.dummy
  done;
  t.head <- 0;
  t.len <- 0

let fold f acc t =
  let cap = Array.length t.buf in
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    let j = t.head + i in
    acc := f !acc t.buf.(if j >= cap then j - cap else j)
  done;
  !acc
