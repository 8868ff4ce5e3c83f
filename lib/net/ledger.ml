open Nab_graph

(* ------------------------------ index ----------------------------------

   The digraph compiled once into dense vertex/edge-indexed arrays, so the
   backends' rounds run on integer indices — no per-message map lookups,
   no per-round hashtables. *)

type index = {
  nv : int;
  ne : int;
  vid : int array; (* dense index -> vertex id, ascending *)
  (* vertex id -> dense index. Contiguous-ish id ranges (the common case)
     use a direct offset table; pathological ranges fall back to hashing. *)
  idx_base : int;
  idx_direct : int array; (* (id - idx_base) -> index, -1 absent; [||] = hashed *)
  idx_tbl : (int, int) Hashtbl.t;
  (* Edges in (src, dst) lexicographic order — the order every sorted
     accessor (link_bits, utilization) reports in. *)
  e_src_id : int array;
  e_dst_id : int array;
  e_dst : int array; (* dense destination index per edge *)
  e_capf : float array;
  (* (src index * nv + dst index) -> edge id. Dense matrix for small
     graphs, hashtable above [dense_edge_limit] vertices. *)
  eid_dense : int array;
  eid_tbl : (int, int) Hashtbl.t;
}

let dense_vertex_span = 65536
let dense_edge_limit = 512 (* nv <= this: the nv^2 edge matrix stays small *)

let vertex_index c v =
  if Array.length c.idx_direct > 0 then begin
    let o = v - c.idx_base in
    if o < 0 || o >= Array.length c.idx_direct then -1 else c.idx_direct.(o)
  end
  else match Hashtbl.find_opt c.idx_tbl v with Some i -> i | None -> -1

let edge_id c src dst =
  let si = vertex_index c src in
  if si < 0 then -1
  else begin
    let di = vertex_index c dst in
    if di < 0 then -1
    else begin
      let key = (si * c.nv) + di in
      if Array.length c.eid_dense > 0 then c.eid_dense.(key)
      else match Hashtbl.find_opt c.eid_tbl key with Some e -> e | None -> -1
    end
  end

let compile g =
  let vid = Array.of_list (Digraph.vertices g) in
  let nv = Array.length vid in
  let idx_tbl = Hashtbl.create (max 16 nv) in
  let idx_base, idx_direct =
    if nv = 0 then (0, [||])
    else begin
      let lo = vid.(0) and hi = vid.(nv - 1) in
      let span = hi - lo + 1 in
      if span > 0 && (span <= dense_vertex_span || span <= 64 * nv) then begin
        let a = Array.make span (-1) in
        Array.iteri (fun i v -> a.(v - lo) <- i) vid;
        (lo, a)
      end
      else begin
        Array.iteri (fun i v -> Hashtbl.replace idx_tbl v i) vid;
        (0, [||])
      end
    end
  in
  let edges = Array.of_list (Digraph.edges g) in
  let ne = Array.length edges in
  let e_src_id = Array.make ne 0 in
  let e_dst_id = Array.make ne 0 in
  let e_dst = Array.make ne 0 in
  let e_capf = Array.make ne 0.0 in
  let use_dense = nv > 0 && nv <= dense_edge_limit in
  let eid_dense = if use_dense then Array.make (nv * nv) (-1) else [||] in
  let eid_tbl = Hashtbl.create (if use_dense then 1 else max 16 ne) in
  let lookup v =
    if Array.length idx_direct > 0 then idx_direct.(v - idx_base)
    else Hashtbl.find idx_tbl v
  in
  Array.iteri
    (fun e (src, dst, cap) ->
      let si = lookup src and di = lookup dst in
      e_src_id.(e) <- src;
      e_dst_id.(e) <- dst;
      e_dst.(e) <- di;
      e_capf.(e) <- float_of_int cap;
      let key = (si * nv) + di in
      if use_dense then eid_dense.(key) <- e else Hashtbl.replace eid_tbl key e)
    edges;
  {
    nv;
    ne;
    vid;
    idx_base;
    idx_direct;
    idx_tbl;
    e_src_id;
    e_dst_id;
    e_dst;
    e_capf;
    eid_dense;
    eid_tbl;
  }

(* ------------------------------ ledger --------------------------------- *)

type 'm event = { round_no : int; ev_phase : string; src : int; dst : int; msg : 'm }

type phase_acc = {
  mutable p_rounds : int;
  mutable p_wall : float;
  mutable p_bottleneck : float;
  mutable p_bits : int;
  mutable p_extra : float;
}

let new_acc () =
  { p_rounds = 0; p_wall = 0.0; p_bottleneck = 0.0; p_bits = 0; p_extra = 0.0 }

type 'm t = {
  backend : string; (* for error messages *)
  g : Digraph.t;
  ix : index;
  bits : 'm -> int;
  obs : Nab_obs.ctx;
  keep_events : bool;
  mutable round_no : int;
  mutable msg_no : int; (* delivered-message counter, for trace sampling *)
  mutable evs : 'm event list; (* reversed; only grown when keep_events *)
  mutable dropped : int;
  link_total : int array; (* per edge, whole run *)
  phases : (string, phase_acc) Hashtbl.t;
  mutable phase_order : string list; (* reversed *)
  mutable phase : string; (* the current round's phase ... *)
  mutable acc : phase_acc; (* ... and its accumulator *)
  (* per-round scratch, reset via the touched list *)
  round_bits : int array; (* per edge *)
  touched : int array; (* edge ids with round_bits > 0 this round *)
  mutable n_touched : int;
}

let create ?(obs = Nab_obs.null) ?(keep_events = false) ~backend g ~bits =
  let ix = compile g in
  {
    backend;
    g;
    ix;
    bits;
    obs;
    keep_events;
    round_no = 0;
    msg_no = 0;
    evs = [];
    dropped = 0;
    link_total = Array.make ix.ne 0;
    phases = Hashtbl.create 8;
    phase_order = [];
    phase = "";
    acc = new_acc ();
    round_bits = Array.make ix.ne 0;
    touched = Array.make ix.ne 0;
    n_touched = 0;
  }

let index l = l.ix
let graph l = l.g
let obs l = l.obs
let keeps_events l = l.keep_events
let rounds_run l = l.round_no
let dropped l = l.dropped

let phase_acc l name =
  match Hashtbl.find_opt l.phases name with
  | Some acc -> acc
  | None ->
      let acc = new_acc () in
      Hashtbl.add l.phases name acc;
      l.phase_order <- name :: l.phase_order;
      acc

(* The obs timestamp: summed in Hashtbl order, which need not match the
   first-use-order sum [timing] reports as [wall] to the last bit. *)
let elapsed_phases l =
  Hashtbl.fold (fun _ a acc -> acc +. a.p_wall +. a.p_extra) l.phases 0.0

(* ------------------------------ a round -------------------------------- *)

let begin_round l ~phase =
  l.acc <- phase_acc l phase;
  l.phase <- phase;
  l.round_no <- l.round_no + 1;
  l.round_no

let charge l e msg =
  let b = l.bits msg in
  if b <= 0 then
    invalid_arg (l.backend ^ ".round: message with non-positive bit size");
  if l.round_bits.(e) = 0 then begin
    l.touched.(l.n_touched) <- e;
    l.n_touched <- l.n_touched + 1
  end;
  l.round_bits.(e) <- l.round_bits.(e) + b;
  l.link_total.(e) <- l.link_total.(e) + b

let drop l =
  l.dropped <- l.dropped + 1;
  Nab_obs.add l.obs "sim.dropped" 1

let deliver l src dst msg =
  if l.keep_events then
    l.evs <- { round_no = l.round_no; ev_phase = l.phase; src; dst; msg } :: l.evs;
  l.msg_no <- l.msg_no + 1;
  let sample = Nab_obs.sample_messages l.obs in
  if sample > 0 && l.msg_no mod sample = 0 then
    Nab_obs.point l.obs ~scope:"sim" ~t:(elapsed_phases l)
      ~attrs:
        [
          ("phase", Nab_obs.S l.phase);
          ("round", Nab_obs.I l.round_no);
          ("src", Nab_obs.I src);
          ("dst", Nab_obs.I dst);
          ("bits", Nab_obs.I (l.bits msg));
        ]
      "msg"

let transmission l =
  let d = ref 0.0 in
  for i = 0 to l.n_touched - 1 do
    let e = l.touched.(i) in
    d := Float.max !d (float_of_int l.round_bits.(e) /. l.ix.e_capf.(e))
  done;
  !d

let end_round l ~duration =
  let bits = ref 0 in
  for i = 0 to l.n_touched - 1 do
    let e = l.touched.(i) in
    bits := !bits + l.round_bits.(e);
    l.round_bits.(e) <- 0
  done;
  l.n_touched <- 0;
  let bits = !bits and acc = l.acc in
  acc.p_rounds <- acc.p_rounds + 1;
  acc.p_wall <- acc.p_wall +. duration;
  acc.p_bottleneck <- Float.max acc.p_bottleneck duration;
  acc.p_bits <- acc.p_bits + bits;
  if Nab_obs.enabled l.obs then begin
    Nab_obs.point l.obs ~scope:"sim" ~t:(elapsed_phases l)
      ~attrs:
        [
          ("phase", Nab_obs.S l.phase);
          ("round", Nab_obs.I l.round_no);
          ("bits", Nab_obs.I bits);
          ("duration", Nab_obs.F duration);
        ]
      "round";
    Nab_obs.add l.obs "sim.rounds" 1;
    Nab_obs.add l.obs "sim.bits" bits
  end

let add_cost l ~phase c =
  let acc = phase_acc l phase in
  acc.p_extra <- acc.p_extra +. c

let drain l ~pending ~round =
  (* Messages already in flight keep arriving even when no node has
     anything left to send: run empty rounds until the fabric is quiet. *)
  let merged : (int, (int * 'm) list) Hashtbl.t = Hashtbl.create 16 in
  while pending () > 0 do
    let inbox = round (fun _ -> []) in
    Array.iter
      (fun v ->
        match inbox v with
        | [] -> ()
        | arrivals ->
            Hashtbl.replace merged v
              ((try Hashtbl.find merged v with Not_found -> []) @ arrivals))
      l.ix.vid
  done;
  fun v -> try Hashtbl.find merged v with Not_found -> []

(* ----------------------------- answers --------------------------------- *)

let phase_stats l =
  List.rev_map
    (fun name ->
      let a = Hashtbl.find l.phases name in
      {
        Transport.phase = name;
        rounds = a.p_rounds;
        wall = a.p_wall;
        bottleneck = a.p_bottleneck;
        bits_total = a.p_bits;
        extra = a.p_extra;
      })
    l.phase_order

let timing l =
  let phases = phase_stats l in
  {
    Transport.wall =
      List.fold_left
        (fun acc (s : Transport.phase_stat) -> acc +. s.wall +. s.extra)
        0.0 phases;
    pipelined =
      List.fold_left
        (fun acc (s : Transport.phase_stat) -> acc +. s.bottleneck +. s.extra)
        0.0 phases;
    phases;
  }

(* Every link that carried bits, in edge order, with [f e bits]. *)
let per_link l f =
  let ix = l.ix in
  let acc = ref [] in
  for e = ix.ne - 1 downto 0 do
    let b = l.link_total.(e) in
    if b > 0 then acc := ((ix.e_src_id.(e), ix.e_dst_id.(e)), f e b) :: !acc
  done;
  !acc

let link_bits l = per_link l (fun _ b -> b)

let utilization l =
  (* Denominator: total elapsed time including analytic add_cost. A run
     whose time is entirely analytic (wall = 0) still lists every link that
     carried bits, at utilisation 0.0 — the empty list is reserved for "no
     traffic at all". *)
  let wall = (timing l).wall in
  per_link l (fun e b ->
      if wall <= 0.0 then 0.0 else float_of_int b /. (l.ix.e_capf.(e) *. wall))

let events l = List.rev l.evs
let events_of_phase l phase = List.filter (fun e -> e.ev_phase = phase) (events l)

(* ------------------------- TRANSPORT packing --------------------------- *)

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

module Make_transport (B : BACKEND) : Transport.TRANSPORT with type t = B.t =
struct
  type t = B.t

  let graph t = graph (B.ledger t)
  let obs t = obs (B.ledger t)
  let round = B.round
  let pending_count = B.pending_count
  let drain = B.drain
  let add_cost t = add_cost (B.ledger t)
  let timing t = timing (B.ledger t)
  let link_bits t = link_bits (B.ledger t)
  let dropped t = dropped (B.ledger t)
  let utilization t = utilization (B.ledger t)

  let events_of_phase t phase =
    List.map
      (fun (e : Packet.t event) ->
        {
          Transport.round_no = e.round_no;
          ev_phase = e.ev_phase;
          src = e.src;
          dst = e.dst;
          msg = e.msg;
        })
      (events_of_phase (B.ledger t) phase)

  let keeps_events t = keeps_events (B.ledger t)
  let rounds_run t = rounds_run (B.ledger t)
  let close = B.close
end
