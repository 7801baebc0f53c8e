(* The hashed timer wheel of both flat tables ([Flow_table], the
   session table): 4096 buckets, each a [Slot_list] of the slots whose
   deadline falls in its tick, and the due list of a pass.  The lists
   are the wheel's own, so a slot may also sit on one of its owner's.
   A slot comes due early when its owner moved its deadline later, or
   the deadline lay over 4096 ticks ahead; never late, so a hit need
   not touch the wheel.  Times are int ns. *)

let size = 4096
let due = size

(* Timeouts are capped so deadlines never overflow. *)
let max_timeout = 1 lsl 60

type t = { lists : Slot_list.t; mutable tick_bits : int; mutable last_tick : int }

(* A tick of about a sixteenth of the timeout: a pass's partly elapsed
   tick then holds few slots not yet due, and the wheel spans 256
   timeouts. *)
let tick_bits_of timeout = Index.log2 (max 1 (timeout / 16))

let create ~slots ~timeout ~now =
  let tick_bits = tick_bits_of timeout in
  { lists = Slot_list.create ~lists:(size + 1) ~slots; tick_bits;
    last_tick = now asr tick_bits }

let grow t ~slots = Slot_list.grow t.lists ~slots

(* Sets the tick for [timeout]; every slot must then be scheduled
   again. *)
let retick t ~timeout =
  let bits = tick_bits_of timeout in
  t.last_tick <- (t.last_tick lsl t.tick_bits) asr bits;
  t.tick_bits <- bits

(* Slot [s] to instant [at]'s bucket, or the last pass's when [at] is
   earlier. *)
let schedule t s ~at =
  let tk = max (at asr t.tick_bits) t.last_tick in
  Slot_list.unlink t.lists s;
  Slot_list.push_back t.lists (tk land (size - 1)) s

let unlink t s = Slot_list.unlink t.lists s

(* Due slots are cold (they idled a timeout): reading the next [ahead]
   ones' lines ([read], summed only to keep the reads) before the
   re-checks lets their misses overlap. *)
let ahead = 16
let sink = ref 0

let rec read_ahead t read s k acc =
  if s < 0 || k = 0 then sink := acc
  else read_ahead t read (Slot_list.next t.lists s) (k - 1) (acc + read s)

let rec reap t ~expired ~deadline ~read k n =
  let s = Slot_list.first t.lists due in
  if s < 0 then n
  else begin
    if k = 0 then read_ahead t read s ahead 0;
    let k = if k = 0 then ahead - 1 else k - 1 in
    if expired s then reap t ~expired ~deadline ~read k (n + 1)
    else begin
      schedule t s ~at:(deadline s);
      reap t ~expired ~deadline ~read k n
    end
  end

(* A pass to [now]: the buckets of every tick since the last pass, the
   current one's included, each once however far the clock jumped (an
   instant before the last pass stands for its tick), go on the due
   list in tick order.  Each due slot [s] is then re-checked once:
   [expired s] frees it, unlinked, and is true, or the slot goes back
   at [deadline s].  Returns how many expired. *)
let pass t ~now ~expired ~deadline ~read =
  let tk = max (now asr t.tick_bits) t.last_tick in
  for x = max t.last_tick (tk - size + 1) to tk do
    Slot_list.append t.lists ~src:(x land (size - 1)) ~dst:due
  done;
  t.last_tick <- tk;
  reap t ~expired ~deadline ~read 0 0
