(** The Plugin Manager: the paper's [pmgr] user-space utility plus the
    Router Plugin Library it is built on (section 3.1).  "It is a
    simple application which takes arguments from the command line and
    translates them into calls" against the kernel components — here,
    against a {!Rp_core.Router.t}.

    Command language (one command per call / per script line):

    {v
    modload <plugin>                      load from the plugin library
    modload-file <path.cmxs>              dynamically load an object file
    modunload <plugin>
    create <plugin> [k=v ...]             -> "instance <id>"
    free <instance>
    bind <instance> <filter>              register filter with the AIU
    unbind <instance> <filter>
    attach <instance> <iface>             scheduler instance -> qdisc
    detach <iface>
    reserve <instance> <rate_bps> <filter>  DRR reservation (exact filter)
    message <plugin> <key> [payload]
    route add <prefix> <iface> [<next-hop>]
    route del <prefix>
    show plugins | instances | ifaces | routes | flows
    faults show                           per-instance fault/quarantine state
    plugin quarantine <instance>          tear down bindings, degrade to default
    plugin restore <instance>             re-bind a quarantined instance
    fault policy drop|continue|unbind     packet fate on a contained fault
    fault budget <cycles>|off             per-invocation handler cycle budget
    fault threshold <n>                   consecutive faults before quarantine
    engine stats                          sharded-engine state, if one is attached
    stats show|json [pattern]             metric registry snapshot
    stats reset                           zero all counters/histograms
    trace on [N]                          hot-path tracing, sampling 1-in-N (default 1)
    trace off | trace status
    trace dump [FILE]                     Chrome trace-event JSON (Perfetto-loadable)
    flows top [N]                         top flows by bytes (live + exported records)
    v}

    [pmgr] only calls the router's API: an attached
    {!Rp_engine.Engine.t} publishes every change to its worker shards
    before its next packet, whoever made it.

    Filters use the paper's six-tuple syntax, e.g.
    [<129.0.0.0/8, 192.94.233.10, TCP, *, *, *>]. *)

open Rp_core

(** [exec router line] executes one command, returning its output. *)
val exec : Router.t -> string -> (string, string) result

(** [exec_script router text] runs commands line by line (['#']
    comments and blank lines skipped), stopping at the first error,
    which is reported with its line number. *)
val exec_script : Router.t -> string -> (string list, string) result
