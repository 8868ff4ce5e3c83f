type 'm event = 'm Ledger.event = {
  round_no : int;
  ev_phase : string;
  src : int;
  dst : int;
  msg : 'm;
}

type phase_stat = Transport.phase_stat = {
  phase : string;
  rounds : int;
  wall : float;
  bottleneck : float;
  bits_total : int;
  extra : float;
}

type timing = Transport.timing = {
  wall : float;
  pipelined : float;
  phases : phase_stat list;
}

(* ---------------------------- compiled core ----------------------------

   [round] runs entirely on the ledger's dense index — no per-message map
   lookups, no per-round hashtables — and reports every charge, delivery
   and drop to the ledger. The delivered-message semantics (inbox
   ordering, delayed arrivals, drop accounting, trace sampling) are
   byte-identical to the pre-compilation implementation; test/test_net.ml
   checks the two differentially on random graphs against a verbatim copy
   of that implementation. *)

type 'm t = {
  l : 'm Ledger.t;
  c : Ledger.index;
  e_delay : int array; (* max 0 (delays (src, dst)) per edge *)
  pending : (int, (int * int * 'm) list) Hashtbl.t;
      (* due round -> (src, dst, msg): in-flight messages on delayed links *)
  (* Per destination index: the inbox under construction. Senders are
     scanned in ascending order, so immediate deliveries arrive already
     grouped by sender — groups are appended, messages within a group are
     consed (the pre-rewrite cons-then-stable-sort produced exactly
     ascending sender groups with reverse delivery order inside). Rounds
     with delayed arrivals fall back to the verbatim legacy construction
     (ib_flag / ib_legacy). *)
  ib_open : bool array; (* a sender group is open *)
  ib_src : int array; (* sender id of the open group *)
  ib_group : (int * 'm) list array; (* open group, consed *)
  ib_done : (int * 'm) list array; (* closed groups, reverse final order *)
  ib_flag : bool array; (* destination got delayed arrivals this round *)
  ib_legacy : (int * 'm) list array; (* cons-in-delivery-order fallback *)
  dst_touched : int array;
  mutable n_dst : int;
}

let create ?(delays = fun _ -> 0) ?obs ?keep_events g ~bits =
  let l = Ledger.create ?obs ?keep_events ~backend:"Sim" g ~bits in
  let c = Ledger.index l in
  {
    l;
    c;
    e_delay =
      Array.init c.ne (fun e -> max 0 (delays (c.e_src_id.(e), c.e_dst_id.(e))));
    pending = Hashtbl.create 8;
    ib_open = Array.make c.nv false;
    ib_src = Array.make c.nv 0;
    ib_group = Array.make c.nv [];
    ib_done = Array.make c.nv [];
    ib_flag = Array.make c.nv false;
    ib_legacy = Array.make c.nv [];
    dst_touched = Array.make c.nv 0;
    n_dst = 0;
  }

let round t ~phase outbox =
  let l = t.l and c = t.c in
  let round_no = Ledger.begin_round l ~phase in
  let touch_dst di =
    t.dst_touched.(t.n_dst) <- di;
    t.n_dst <- t.n_dst + 1
  in
  (* Messages whose propagation delay elapses this round arrive first;
     their destinations use the legacy inbox construction for the rest of
     the round (senders of delayed messages are not sorted). *)
  (match Hashtbl.find_opt t.pending round_no with
  | Some arrivals ->
      List.iter
        (fun (src, dst, msg) ->
          let di = Ledger.vertex_index c dst in
          if not t.ib_flag.(di) then begin
            t.ib_flag.(di) <- true;
            touch_dst di
          end;
          t.ib_legacy.(di) <- (src, msg) :: t.ib_legacy.(di);
          Ledger.deliver l src dst msg)
        (List.rev arrivals);
      Hashtbl.remove t.pending round_no
  | None -> ());
  let deliver_now di src dst msg =
    (if t.ib_flag.(di) then t.ib_legacy.(di) <- (src, msg) :: t.ib_legacy.(di)
     else begin
       if not t.ib_open.(di) then begin
         t.ib_open.(di) <- true;
         t.ib_src.(di) <- src;
         touch_dst di
       end
       else if t.ib_src.(di) <> src then begin
         t.ib_done.(di) <- List.rev_append t.ib_group.(di) t.ib_done.(di);
         t.ib_group.(di) <- [];
         t.ib_src.(di) <- src
       end;
       t.ib_group.(di) <- (src, msg) :: t.ib_group.(di)
     end);
    Ledger.deliver l src dst msg
  in
  let deliver src dst msg =
    let e = Ledger.edge_id c src dst in
    if e >= 0 then begin
      Ledger.charge l e msg;
      let d = t.e_delay.(e) in
      if d = 0 then deliver_now c.e_dst.(e) src dst msg
      else begin
        let due = round_no + d in
        Hashtbl.replace t.pending due
          ((src, dst, msg)
          :: (match Hashtbl.find_opt t.pending due with Some l -> l | None -> []))
      end
    end
    else Ledger.drop l
  in
  for ui = 0 to c.nv - 1 do
    let v = c.vid.(ui) in
    List.iter (fun (dst, msg) -> deliver v dst msg) (outbox v)
  done;
  Ledger.end_round l ~duration:(Ledger.transmission l);
  (* Materialise the inboxes (the returned closure stays valid across later
     rounds, as before) and reset the scratch arrays for the next round. *)
  let res = Array.make c.nv [] in
  for i = 0 to t.n_dst - 1 do
    let di = t.dst_touched.(i) in
    (if t.ib_flag.(di) then
       (* Delayed arrivals mixed in: replicate the pre-rewrite
          cons-then-stable-sort construction verbatim. *)
       res.(di) <- List.stable_sort (fun (a, _) (b, _) -> compare a b) t.ib_legacy.(di)
     else begin
       let done_rev =
         if t.ib_open.(di) then List.rev_append t.ib_group.(di) t.ib_done.(di)
         else t.ib_done.(di)
       in
       res.(di) <- List.rev done_rev
     end);
    t.ib_flag.(di) <- false;
    t.ib_open.(di) <- false;
    t.ib_group.(di) <- [];
    t.ib_done.(di) <- [];
    t.ib_legacy.(di) <- []
  done;
  t.n_dst <- 0;
  fun v ->
    let di = Ledger.vertex_index c v in
    if di < 0 then [] else res.(di)

let pending_count t = Hashtbl.fold (fun _ l acc -> acc + List.length l) t.pending 0

(* Every round advances the round counter towards the largest due round,
   and an empty outbox adds nothing in flight, so draining terminates. *)
let drain t ~phase =
  Ledger.drain t.l ~pending:(fun () -> pending_count t) ~round:(round t ~phase)

let graph t = Ledger.graph t.l
let obs t = Ledger.obs t.l
let add_cost t = Ledger.add_cost t.l
let timing t = Ledger.timing t.l
let link_bits t = Ledger.link_bits t.l
let dropped t = Ledger.dropped t.l
let utilization t = Ledger.utilization t.l
let events t = Ledger.events t.l
let events_of_phase t = Ledger.events_of_phase t.l
let keeps_events t = Ledger.keeps_events t.l
let rounds_run t = Ledger.rounds_run t.l

(* ------------------------- TRANSPORT packing --------------------------

   The reference backend: a Packet.t-carrying simulator packed behind the
   backend-neutral boundary; its ledger answers the accounting members. *)

module Packet_transport = Ledger.Make_transport (struct
  type nonrec t = Packet.t t

  let ledger t = t.l
  let round = round
  let pending_count = pending_count
  let drain = drain
  let close _ = ()
end)

let transport (t : Packet.t t) : Transport.t =
  Transport.pack (module Packet_transport) t

let factory ?delays () : Transport.factory =
 fun ~obs ~keep_events g ->
  transport (create ?delays ~obs ~keep_events g ~bits:Packet.bits)

(* Evaluated once at module initialisation: the shared default every
   driver-level [?transport] argument points at, so "which backend runs
   when the caller says nothing" is decided in exactly one place instead
   of a fresh [factory ()] closure per call site. *)
let default_factory : Transport.factory = factory ()

