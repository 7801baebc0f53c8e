(** Plain FIFO scheduling plugin: the degenerate qdisc, useful as a
    baseline and for exercising the scheduling gate without any
    policy.  Config: [limit] (packets, a positive integer, default
    512). *)

open Rp_pkt
open Rp_core

let name = "fifo"
let gate = Gate.Scheduling
let description = "single FIFO output queue"

type state = {
  q : Mbuf.t Ring.t;
  mutable dropped : int;
}

let create_instance ~instance_id ~code ~config =
  Result.map
    (fun limit ->
      let st = { q = Ring.create ~limit ~dummy:Mbuf.dummy (); dropped = 0 } in
      let scheduler =
        {
          Plugin.enqueue =
            (fun ~now:_ m _binding ->
              if Ring.push st.q m then Plugin.Enqueued
              else begin
                st.dropped <- st.dropped + 1;
                Plugin.Rejected "fifo full"
              end);
          dequeue =
            (fun ~now:_ ->
              if Ring.is_empty st.q then Mbuf.dummy else Ring.pop st.q);
          backlog = (fun () -> Ring.length st.q);
          sched_stats =
            (fun () ->
              [ ("backlog", string_of_int (Ring.length st.q));
                ("dropped", string_of_int st.dropped) ]);
        }
      in
      let base =
        Plugin.simple ~instance_id ~code ~plugin_name:name ~gate ~config
          (fun _ _ -> Plugin.Continue)
      in
      { base with Plugin.scheduler = Some scheduler })
    (Plugin.positive_int config "limit" ~default:512)

let message key _ =
  match key with
  | "plugin-info" -> Ok description
  | _ -> Error (Printf.sprintf "fifo: unknown message %s" key)
