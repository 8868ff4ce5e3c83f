(* The phase clock: a Transport.factory wrapped around the synchronous
   simulator, timing only in the traced run. Every protocol round passes
   through Transport.round or Transport.drain with a phase label
   ("phase1", "equality-check", "flags", "dispute-control", "stream-data",
   "stream-flags"), so the wrapper switches the current label there and
   the wall time until the next switch goes to that label. Time spent
   inside the backend itself (the round call minus the outbox callbacks,
   which are protocol work) and in creating the backend goes to "sim".

   The benchmark sets the label itself around calls it makes into a layer
   (say "stream-data" from Nab_stream.create on, as admission builds the
   transcripts before any round) and resets it to "driver" at each
   operation boundary; whatever stays under "driver" is time no layer
   accounts for. *)

open Nab_net

type t = {
  mutable label : string;
  mutable since : float;
  self : (string, float ref) Hashtbl.t;  (** label -> seconds, backend time excluded *)
  mutable sim_s : float;  (** inside the backend: rounds minus callbacks, plus creation *)
  mutable rounds : int;
  mutable on_round : unit -> unit;  (** called before each round, e.g. to stamp progress *)
}

let now = Unix.gettimeofday

let create () =
  {
    label = "driver";
    since = now ();
    self = Hashtbl.create 16;
    sim_s = 0.0;
    rounds = 0;
    on_round = ignore;
  }

let charge c label dt =
  match Hashtbl.find_opt c.self label with
  | Some r -> r := !r +. dt
  | None -> Hashtbl.replace c.self label (ref dt)

(* Close the current label's interval and open [label]'s. *)
let switch c label =
  let t = now () in
  charge c c.label (t -. c.since);
  c.label <- label;
  c.since <- t

(* Backend time measured inside the current label's interval: moved from
   the label to "sim" so the label keeps its self time. *)
let backend c dt =
  charge c c.label (-.dt);
  c.sim_s <- c.sim_s +. dt

let reset c =
  Hashtbl.reset c.self;
  c.sim_s <- 0.0;
  c.rounds <- 0;
  c.label <- "driver";
  c.since <- now ()

(* [timed = false] keeps only the [on_round] hook: the untraced stream run
   uses it to stamp finalizations without paying for the clock. *)
let wrap ~timed c (net : Transport.t) : Transport.t =
  let module W = struct
    type t = Transport.t

    let graph = Transport.graph
    let obs = Transport.obs

    let round net ~phase outbox =
      c.on_round ();
      if not timed then Transport.round net ~phase outbox
      else begin
        switch c phase;
        let cb = ref 0.0 in
        let outbox v =
          let t0 = now () in
          let r = outbox v in
          cb := !cb +. (now () -. t0);
          r
        in
        let t0 = now () in
        let inbox = Transport.round net ~phase outbox in
        backend c (now () -. t0 -. !cb);
        c.rounds <- c.rounds + 1;
        inbox
      end

    let pending_count = Transport.pending_count

    let drain net ~phase =
      c.on_round ();
      if not timed then Transport.drain net ~phase
      else begin
        switch c phase;
        let t0 = now () in
        let inbox = Transport.drain net ~phase in
        backend c (now () -. t0);
        inbox
      end

    let add_cost = Transport.add_cost
    let timing = Transport.timing
    let link_bits = Transport.link_bits
    let dropped = Transport.dropped
    let utilization = Transport.utilization
    let events_of_phase = Transport.events_of_phase
    let keeps_events = Transport.keeps_events
    let rounds_run = Transport.rounds_run
    let close = Transport.close
  end in
  Transport.pack (module W) net

let factory ?(timed = true) c (inner : Transport.factory) : Transport.factory =
 fun ~obs ~keep_events g ->
  let t0 = now () in
  let net = inner ~obs ~keep_events g in
  if timed then backend c (now () -. t0);
  wrap ~timed c net
