(** The one accounting ledger every transport backend reports to — the
    paper's timing model in a single place.

    All links transmit in parallel; a round in which link e of capacity
    z_e carries b_e bits lasts [max_e b_e / z_e] time units. Rounds are
    grouped into named phases; for each phase the ledger tracks the sum of
    round durations (wall), the bottleneck (max) round duration — the
    steady-state per-instance cost under the paper's Figure-3 pipelining —
    the bits carried and any analytic cost added with {!add_cost}.

    A backend's round reports three things: the bits charged per edge
    ({!charge}), the deliveries and drops ({!deliver}, {!drop}), and the
    duration it charges to the round ({!end_round}). The ledger owns
    everything derived from them: per-link totals, phase accumulators in
    first-use order, the [keep_events] delivery log, the round counter,
    observability (one ["round"] point per round, every s-th delivery as a
    ["msg"] point, counters [sim.rounds]/[sim.bits]/[sim.dropped]) and
    every accounting answer of {!Transport.TRANSPORT}. *)

(** {1 Index}

    The digraph compiled once into dense vertex- and edge-indexed arrays:
    a direct id->index table, edge arrays in (src, dst) order, and an O(1)
    link-id lookup. *)

type index = private {
  nv : int;
  ne : int;
  vid : int array;  (** dense index -> vertex id, ascending *)
  idx_base : int;
  idx_direct : int array;
  idx_tbl : (int, int) Hashtbl.t;
  e_src_id : int array;  (** per edge, (src, dst) lexicographic order *)
  e_dst_id : int array;
  e_dst : int array;  (** dense destination index per edge *)
  e_capf : float array;  (** capacity per edge *)
  eid_dense : int array;
  eid_tbl : (int, int) Hashtbl.t;
}

val vertex_index : index -> int -> int
(** Dense index of a vertex id, or -1 when absent. *)

val edge_id : index -> int -> int -> int
(** [edge_id ix src dst] is the edge id of the link, or -1 when the link
    (or either endpoint) does not exist. *)

(** {1 Ledger} *)

type 'm event = { round_no : int; ev_phase : string; src : int; dst : int; msg : 'm }
(** One delivered message, as kept when the ledger keeps events. *)

type 'm t

val create :
  ?obs:Nab_obs.ctx ->
  ?keep_events:bool ->
  backend:string ->
  Nab_graph.Digraph.t ->
  bits:('m -> int) ->
  'm t
(** A fresh ledger over the graph's compiled {!index}. [bits] sizes a
    message; it must be positive. [keep_events] (default [false]) retains
    the full delivery log. [backend] names the reporting module in error
    messages. *)

val index : 'm t -> index
val graph : 'm t -> Nab_graph.Digraph.t
val obs : 'm t -> Nab_obs.ctx

(** {2 Reporting a round} *)

val begin_round : 'm t -> phase:string -> int
(** Open the next round in [phase] (created on first use) and return its
    number, counting from 1. *)

val charge : 'm t -> int -> 'm -> unit
(** [charge l e msg] charges [msg]'s bits to edge [e] in this round and in
    the link's whole-run total. Raises [Invalid_argument
    "<backend>.round: message with non-positive bit size"] on a
    non-positive size. *)

val drop : 'm t -> unit
(** Count a message addressed to a non-existent link. *)

val deliver : 'm t -> int -> int -> 'm -> unit
(** [deliver l src dst msg] records a delivery in the current round: the
    event log (when kept) and message sampling. The sample's timestamp is
    the elapsed time charged so far. *)

val transmission : 'm t -> float
(** The current round's transmission time: max over the links charged in
    it of bits / capacity (0 for a traffic-free round). *)

val end_round : 'm t -> duration:float -> unit
(** Close the round, charging [duration] to its phase: wall, bottleneck,
    bits, and the ["round"] point. *)

val add_cost : 'm t -> phase:string -> float -> unit
(** Account analytically-modelled time into a phase. *)

val drain :
  'm t ->
  pending:(unit -> int) ->
  round:((int -> (int * 'm) list) -> int -> (int * 'm) list) ->
  int ->
  (int * 'm) list
(** Run [round] with empty outboxes while [pending ()] is non-zero and
    merge the arrivals per node, in delivery order. *)

(** {2 Answers} *)

val timing : 'm t -> Transport.timing
val link_bits : 'm t -> ((int * int) * int) list
val dropped : 'm t -> int
val utilization : 'm t -> ((int * int) * float) list
val events : 'm t -> 'm event list
val events_of_phase : 'm t -> string -> 'm event list
val keeps_events : 'm t -> bool
val rounds_run : 'm t -> int

(** {1 Packing a backend} *)

type 'm ledger = 'm t

module type BACKEND = sig
  type t

  val ledger : t -> Packet.t ledger

  val round :
    t -> phase:string -> (int -> (int * Packet.t) list) -> int -> (int * Packet.t) list

  val pending_count : t -> int
  val drain : t -> phase:string -> int -> (int * Packet.t) list
  val close : t -> unit
end
(** What a backend implements itself; the ledger answers the rest. *)

module Make_transport (B : BACKEND) : Transport.TRANSPORT with type t = B.t
