(* pmgr — the Plugin Manager command-line utility (paper, section 3.1).

   Drives a demonstration router instance: commands come from the
   command line, a script file, or an interactive prompt.  This is the
   user-space side of the control path; the same command language is
   scriptable against any router embedded through the library (see
   Rp_control.Pmgr). *)

open Cmdliner

let make_router ifaces =
  let ifc = List.init ifaces (fun id -> Rp_core.Iface.create ~id ()) in
  Rp_core.Router.create ~name:"pmgr-demo" ~ifaces:ifc ()

let run_line router line =
  match Rp_control.Pmgr.exec router line with
  | Ok "" -> ()
  | Ok out -> print_endline out
  | Error e -> Printf.eprintf "error: %s\n%!" e

let repl router =
  print_endline "pmgr interactive mode — ctrl-D to exit.";
  (try
     while true do
       print_string "pmgr> ";
       let line = read_line () in
       if String.trim line <> "" then run_line router line
     done
   with End_of_file -> ());
  print_newline ()

let main script commands ifaces =
  let router = make_router ifaces in
  (match script with
   | Some path ->
     let ic = open_in path in
     let len = in_channel_length ic in
     let text = really_input_string ic len in
     close_in ic;
     (match Rp_control.Pmgr.exec_script router text with
      | Ok outputs -> List.iter (fun o -> if o <> "" then print_endline o) outputs
      | Error e ->
        Printf.eprintf "script error: %s\n%!" e;
        exit 1)
   | None -> ());
  match commands with
  | [] -> if script = None then repl router
  | _ -> run_line router (String.concat " " commands)

let script_arg =
  let doc = "Execute the pmgr commands in $(docv) first." in
  Arg.(value & opt (some file) None & info [ "f"; "script" ] ~docv:"FILE" ~doc)

let commands_arg =
  let doc = "A single pmgr command (e.g. $(b,modload drr))." in
  Arg.(value & pos_all string [] & info [] ~docv:"COMMAND" ~doc)

let ifaces_arg =
  let doc = "Number of interfaces on the demonstration router." in
  Arg.(value & opt int 4 & info [ "ifaces" ] ~docv:"N" ~doc)

let cmd =
  let doc = "plugin manager for the router plugins framework" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Configures a router plugins kernel: loads plugins, creates and \
         binds instances, installs routes, and queries state.  With no \
         command and no script, starts an interactive prompt.";
      `S "COMMANDS";
      `P "modload/modunload PLUGIN; create PLUGIN [k=v ...]; free N;";
      `P "bind N <FILTER>; unbind N <FILTER>; attach N IFACE; detach IFACE;";
      `P "reserve N RATE <FILTER>; message PLUGIN KEY [PAYLOAD];";
      `P "route add PREFIX IFACE [NEXTHOP]; route del PREFIX;";
      `P "show plugins|instances|ifaces|routes|flows;";
      `P "stats show|json [PATTERN]; stats reset;";
      `P "faults show; plugin quarantine N; plugin restore N;";
      `P "fault policy drop|continue|unbind; fault budget N|off;";
      `P "fault threshold N;";
      `P "slo show|set N|clear|on|off; slo exemplars [N]; slo reset;";
      `P "drops show; health show|sample|reset-hwm; top";
      `P
        "sessions show [TABLE] (live sessions of their capacity, the \
         table's counters, one line per session); sessions top [N] \
         [TABLE]; sessions timeout CLASS SECS [TABLE]; sessions expire \
         NOW_S [TABLE]; sessions flush [TABLE];";
      `P
        "nat add snat|dnat <FILTER> ADDR [port=N] [tos=N] [table=NAME]; \
         nat del N [TABLE]; nat show [TABLE].";
    ]
  in
  Cmd.v
    (Cmd.info "pmgr" ~version:"1.0" ~doc ~man)
    Term.(const main $ script_arg $ commands_arg $ ifaces_arg)

let () = exit (Cmd.eval cmd)
