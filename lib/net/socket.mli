(** Real-network socket backend: one OS process per node.

    The third {!Transport.TRANSPORT} implementation. Where {!Sim} and
    {!Async_sim} move messages inside one process, this backend runs every
    vertex of the digraph as its own event-driven OS process and moves the
    protocol's bytes through real stream sockets — Unix-domain by default,
    TCP loopback on request. The coordinator (this process) keeps the
    round-structured interface the protocol layers speak and replicates
    the synchronous simulator's accounting {e exactly}: a zero-fault run
    over the socket backend produces the same run report, delivery trace
    and observability stream as {!Sim}, a property the differential gate
    in [bench/socket.exe --check] holds.

    {2 Process model}

    Nodes are fresh processes of [Sys.executable_name], spawned with
    [Unix.create_process_env] (OCaml 5's [Unix.fork] refuses to run once
    any other domain exists, and planning runs on [Pool] domains): the
    re-executed binary recognises itself as a node via the
    [NAB_SOCKET_NODE] environment variable.
    {b Every binary that creates socket transports must therefore call}
    {!exec_node_if_requested} {b first thing in [main]} — it is a no-op in
    the coordinator and never returns in a node. {!create} refuses to run
    in a process that did not, because re-executing a binary that never
    checks the hook would re-run that binary's [main] once per node.

    {2 Wire format}

    Every frame on every socket is ["NB"] magic, a version byte, a kind
    byte and a 32-bit big-endian body length (capped at 16 MiB), followed
    by a {!Wire.Codec} body; packets travel as {!Packet.encode} bytes.
    Malformed or oversized {e framing} poisons the connection (a byte
    stream cannot be resynchronised); a frame body that fails to decode on
    a data link — the Byzantine case — is counted and dropped, never
    fatal. Messages are delivered node-to-node over per-pair links (the
    lower vertex id dials); the coordinator checks each round's node
    reports against the synchronous prediction and raises {!Socket_error}
    on any divergence, so a faulty wire exchange can never silently
    corrupt a run. *)

exception Socket_error of string
(** Transport-level failure: a node process died, a handshake or round
    timed out, control-channel framing broke, or the wire exchange
    diverged from the synchronous prediction. Distinct from protocol
    outcomes — a raising transport never produces a wrong inbox. *)

type mode = [ `Unix | `Tcp ]
(** Socket family: Unix-domain sockets in a private temporary directory
    (default), or TCP on 127.0.0.1 with ephemeral ports. *)

type t
(** A live fleet: the node processes, their control channels, and the
    coordinator-side accounting state. *)

val exec_node_if_requested : unit -> unit
(** Call first in the [main] of every binary that may create socket
    transports. In a coordinator process this installs the re-exec hook
    and returns; in a process launched as a node (the [NAB_SOCKET_NODE]
    environment variable is set) it runs the node event loop and exits —
    it never returns. *)

val create :
  ?mode:mode ->
  ?timeout:float ->
  ?obs:Nab_obs.ctx ->
  ?keep_events:bool ->
  Nab_graph.Digraph.t ->
  t
(** Spawn one node process per vertex, wire the per-pair data links, and
    run the handshake to the ready barrier. [timeout] (default 60s) bounds
    the handshake and every subsequent round. Raises {!Socket_error} on
    any setup failure (after reaping whatever it had spawned), and when
    the calling process never ran {!exec_node_if_requested}. *)

val close : t -> unit
(** Stop the fleet: polite Stop frames (collecting {!node_stats}), then
    [waitpid] with a grace period and SIGKILL for stragglers — no node
    process survives [close]. Closes every fd and removes the socket
    directory. Idempotent; also safe after a failure. Fleets abandoned
    without [close] are killed by an [at_exit] hook, and every other
    operation on a closed or failed fleet raises {!Socket_error}. *)

val transport : t -> Transport.t
(** Pack the fleet behind the backend-neutral boundary. The packed
    [Transport.close] is {!close}. *)

val factory : ?mode:mode -> ?timeout:float -> unit -> Transport.factory
(** Factory for session drivers: every broadcast instance gets its own
    fleet over the instance graph (sessions close it per instance). *)

type stats = {
  frames_sent : int;
  frames_received : int;
  bytes_sent : int;
  bytes_received : int;
  decode_errors : int;  (** data-link frames that failed to decode *)
}
(** A node's own traffic counters, summed over its control channel and
    data links — real bytes on real sockets, framing included (distinct
    from the capacity model's {!Transport.link_bits}). *)

val node_stats : t -> (int * stats) list
(** Per-vertex counters reported in the Stop handshake; ascending vertex
    order. Empty before {!close}, and best-effort after a failure (nodes
    that died cannot report). *)

val pids : t -> int list
(** The node process ids, in vertex order — for lifecycle tests (orphan
    checks) and debugging. *)

val available : ?mode:mode -> unit -> (unit, string) result
(** Can this process run socket fleets at all? Checks the
    {!exec_node_if_requested} hook and probes the exact primitives
    {!create} relies on: a bound listener of the selected [mode], and
    spawning this binary as a probe node that exits at once. Test and
    bench tiers skip gracefully on [Error] (e.g. platforms that cannot
    spawn processes) — when this returns [Ok], socket failures are real
    failures. *)
