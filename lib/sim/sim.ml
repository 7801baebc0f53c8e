(* Binary min-heap of events ordered by (time, seq). *)

type event = {
  time : int64;
  seq : int;
  run : unit -> unit;
}

type t = {
  mutable heap : event array;
  mutable size : int;
  mutable clock : int64;
  mutable next_seq : int;
}

let dummy = { time = 0L; seq = 0; run = (fun () -> ()) }

let create () = { heap = Array.make 256 dummy; size = 0; clock = 0L; next_seq = 0 }

let now t = t.clock

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && before t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && before t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t ev =
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) dummy in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  t.heap.(t.size) <- ev;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    t.heap.(0) <- t.heap.(t.size);
    t.heap.(t.size) <- dummy;
    if t.size > 0 then sift_down t 0;
    Some top
  end

let at t time f =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.at: %Ld is in the past (now %Ld)" time t.clock);
  let ev = { time; seq = t.next_seq; run = f } in
  t.next_seq <- t.next_seq + 1;
  push t ev

let after t delay f =
  if delay < 0L then invalid_arg "Sim.after: negative delay";
  at t (Int64.add t.clock delay) f

let run ?until t =
  let executed = ref 0 in
  let continue = ref true in
  while !continue do
    match t.heap, t.size with
    | _, 0 -> continue := false
    | _, _ ->
      let head = t.heap.(0) in
      (match until with
       | Some stop when head.time > stop ->
         t.clock <- stop;
         continue := false
       | Some _ | None ->
         (match pop t with
          | Some ev ->
            t.clock <- ev.time;
            ev.run ();
            incr executed
          | None -> continue := false))
  done;
  !executed

let pending t = t.size

let ns_of_sec s = Int64.of_float (s *. 1e9)
let sec_of_ns ns = Int64.to_float ns /. 1e9
