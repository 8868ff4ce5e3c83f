(* nabbench: the repository benchmark. One process runs one workload as a
   closed loop on the synchronous simulator with one pool job, checks
   every output, and prints its metrics. README.md explains the workloads
   and how the reference probe normalizes wall time.

     nabbench.exe --workload serial-data --seed 1 --seconds 20 --trace 0

   The last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1. *)

open Nab_graph
open Nab_core
open Nab_net
module Pool = Nab_util.Pool
module Plan_cache = Nab_util.Plan_cache
module Kernel = Nab_field.Kernel
module Json = Nab_obs.Json
module Scenario = Nab_exp.Scenario
module Runner = Nab_exp.Runner
module Store = Nab_exp.Store
module Analyze = Nab_exp.Analyze

let now = Unix.gettimeofday

(* ------------------------------ statistics ------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile (sorted xs) 0.5
let sum = List.fold_left ( +. ) 0.0

(* Each latency percentile is printed with its sample count; a tail
   percentile is refused unless at least ten samples lie beyond it. *)
let percentile ~name xs q =
  let a = sorted xs in
  let v = quantile a q in
  let beyond = Array.fold_left (fun c x -> if x > v then c + 1 else c) 0 a in
  Printf.printf "  %s = %.4f  (p%.0f of %d samples, %d beyond)\n" name v (100.0 *. q)
    (Array.length a) beyond;
  if q > 0.5 && beyond < 10 then
    failwith
      (Printf.sprintf "%s: only %d of %d samples beyond p%.0f, need 10" name beyond
         (Array.length a) (100.0 *. q));
  v

(* ------------------------------ probed timing ------------------------------ *)

(* A timed call and the mean of the probes run on either side of it. *)
type sample = { raw : float; probe : float }

(* Seconds -> reference seconds (see Probe.nominal). *)
let scale s = Probe.nominal /. s.probe
let norm s = s.raw *. scale s

type meter = { mutable last_probe : float; mutable probes : float list }

let meter () =
  for _ = 1 to 3 do
    ignore (Probe.time ())
  done;
  let p = Probe.time () in
  { last_probe = p; probes = [ p ] }

let timed m f =
  let t0 = now () in
  let r = f () in
  let raw = now () -. t0 in
  let p = Probe.time () in
  let s = { raw; probe = (m.last_probe +. p) /. 2.0 } in
  m.last_probe <- p;
  m.probes <- p :: m.probes;
  (r, s)

(* [timed] for operations much longer than the probe: [f] gets [inner],
   which runs a probe inside the operation when [inner_every] seconds have
   passed since the last one, and [elapsed], the operation time so far.
   Inner probe time is excluded from the operation and its readings join
   the two around it, so the slow and fast phases of a shared host that a
   long operation straddles are averaged the same way for both. *)
let inner_every = 0.025

let timed_long m f =
  let spent = ref 0.0 and inside = ref [] and last = ref (now ()) in
  let t0 = now () in
  let inner ~around =
    let t = now () in
    if t -. !last >= inner_every then begin
      around (fun () -> inside := Probe.time () :: !inside);
      let t' = now () in
      spent := !spent +. (t' -. t);
      last := t'
    end
  in
  let r = f ~inner ~elapsed:(fun () -> now () -. t0 -. !spent) in
  let raw = now () -. t0 -. !spent in
  let p = Probe.time () in
  let readings = m.last_probe :: p :: !inside in
  let s = { raw; probe = sum readings /. float_of_int (List.length readings) } in
  m.last_probe <- p;
  m.probes <- p :: m.probes;
  (r, s)

(* Median reference seconds per call of [f], over seven batches of at
   least 20 ms each, probed on either side. *)
let time_call f =
  let m = meter () in
  let per_call, s =
    timed m (fun () ->
        ignore (Sys.opaque_identity (f ()));
        let rec batch iters =
          let t0 = now () in
          for _ = 1 to iters do
            ignore (Sys.opaque_identity (f ()))
          done;
          if now () -. t0 >= 0.02 then iters else batch (iters * 2)
        in
        let iters = batch 1 in
        median
          (List.init 7 (fun _ ->
               let t0 = now () in
               for _ = 1 to iters do
                 ignore (Sys.opaque_identity (f ()))
               done;
               (now () -. t0) /. float_of_int iters)))
  in
  per_call *. scale s

(* Median reference seconds of cold runs of [f]: at least [reps] runs, and
   more until [budget] seconds have passed, so that cheap set-ups still
   take a steady median. Set-ups are timed in processor time, probe
   included: a set-up's blocking I/O (the store's fsync) measures the disk,
   not the program, and on a shared disk it moved the campaign median by a
   quarter between two sets of runs. *)
let cold_median ?(budget = 1.5) ~reps f =
  let cpu g =
    let c0 = Sys.time () in
    ignore (Sys.opaque_identity (g ()));
    Sys.time () -. c0
  in
  let probe () = cpu Probe.work in
  ignore (probe ());
  let last = ref (probe ()) in
  let t_end = now () +. budget in
  let rec go n acc =
    if n >= reps && now () >= t_end then acc
    else begin
      let raw = cpu f in
      let p = probe () in
      let s = { raw; probe = (!last +. p) /. 2.0 } in
      last := p;
      go (n + 1) (norm s :: acc)
    end
  in
  median (go 0 [])

(* ------------------------------ results ------------------------------ *)

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  mutable metrics : (string * float * string) list;
}

let result () = { attempted = 0; failed = 0; problems = []; metrics = [] }
let metric r name v unit = r.metrics <- (name, v, unit) :: r.metrics

let problem r msg =
  if not (List.mem msg r.problems) then begin
    Printf.printf "  FAIL: %s\n" msg;
    r.problems <- msg :: r.problems
  end

let count r ok =
  r.attempted <- r.attempted + 1;
  if not ok then r.failed <- r.failed + 1

(* A value that must be identical every time it is observed (every pass
   observes it at least once). *)
let repeated r what xs =
  let x = List.hd xs in
  if List.exists (fun y -> y <> x) xs then problem r (what ^ " did not repeat exactly");
  x

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result r =
  List.iter
    (fun (name, v, _) -> if not (Float.is_finite v) then problem r (name ^ " is not finite"))
    r.metrics;
  let metrics =
    List.rev_map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (if Float.is_finite v then json_number v else "0")
          unit)
      r.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.problems = [] && r.failed = 0)
    r.attempted r.failed (String.concat ", " metrics)

(* An untraced or traced pass over a workload: normalized op times, raw op
   times, the probe times around them and the minor words allocated. *)
type pass = {
  op_s : float list;  (** reference seconds per operation *)
  raws : float list;
  probes : float list;
  latencies_ms : float list;  (** reference ms per latency sample *)
  sims : float list;  (** simulated goodput per observation *)
  minor_words : float;
}

let print_raw (p : pass) =
  Printf.printf "  %d ops, raw op median %.4f ms, probe median %.4f ms (nominal %.1f ms)\n"
    (List.length p.op_s) (1000.0 *. median p.raws) (1000.0 *. median p.probes)
    (1000.0 *. Probe.nominal)

(* The end-to-end metrics, in BENCHMARK.json order. *)
let report_e2e r ~latencies_ms ~goodput_bps ~ops_per_s ~sim_goodput ~setup =
  let p50 = percentile ~name:"latency_ms_p50" latencies_ms 0.5 in
  let p90 = percentile ~name:"latency_ms_p90" latencies_ms 0.9 in
  metric r "goodput_mbps" (goodput_bps /. 1e6) "Mbit/s";
  metric r "latency_ms_p50" p50 "ms";
  metric r "latency_ms_p90" p90 "ms";
  metric r "scenarios_per_s" ops_per_s "1/s";
  metric r "sim_goodput" sim_goodput "bit/t";
  metric r "setup_s" setup "s";
  metric r "heap_peak_mb"
    (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6)
    "MB"

(* Serial and stream workloads: goodput from the median operation, and
   operations per reference second over the whole pass. *)
let report_pass r (p : pass) ~bits_per_op ~setup =
  print_raw p;
  report_e2e r ~latencies_ms:p.latencies_ms
    ~goodput_bps:(bits_per_op /. median p.op_s)
    ~ops_per_s:(float_of_int (List.length p.op_s) /. sum p.op_s)
    ~sim_goodput:(repeated r "sim_goodput" p.sims) ~setup

(* ------------------------------ layer accounting ------------------------------ *)

(* Per-operation sums of the traced run: phase-clock self times in
   reference ms, divided by the operation count when printed. *)
type layers = {
  mutable ops : int;
  mutable op_ms : float;
  self : (string, float ref) Hashtbl.t;
  mutable sim_ms : float;
  mutable rounds : int;
}

let layers () = { ops = 0; op_ms = 0.0; self = Hashtbl.create 16; sim_ms = 0.0; rounds = 0 }

(* Fold one operation's clock intervals into [l], scaled to reference ms by
   the operation's probe, and reset the clock. The operation ends its own
   last interval ({!end_op}) so the probe after it is charged to nobody. *)
let collect l (c : Phase_clock.t) s =
  let k = 1000.0 *. scale s in
  Hashtbl.iter
    (fun label r ->
      match Hashtbl.find_opt l.self label with
      | Some acc -> acc := !acc +. (k *. !r)
      | None -> Hashtbl.replace l.self label (ref (k *. !r)))
    c.Phase_clock.self;
  l.sim_ms <- l.sim_ms +. (k *. c.Phase_clock.sim_s);
  l.rounds <- l.rounds + c.Phase_clock.rounds;
  l.ops <- l.ops + 1;
  l.op_ms <- l.op_ms +. (1000.0 *. norm s);
  Phase_clock.reset c

let end_op = Option.iter (fun c -> Phase_clock.switch c "driver")

let per_op l x = if l.ops = 0 then 0.0 else x /. float_of_int l.ops

let self_ms l label =
  per_op l (match Hashtbl.find_opt l.self label with Some r -> !r | None -> 0.0)

let protocol_labels =
  [ "phase1"; "equality-check"; "flags"; "dispute-control"; "stream-data"; "stream-flags" ]

(* Share of operation time the protocol layers and the backend account for;
   the rest stayed under the "driver" label. *)
let coverage l =
  if l.op_ms <= 0.0 then 0.0
  else
    (sum (List.map (self_ms l) protocol_labels) +. per_op l l.sim_ms) /. per_op l l.op_ms

let obs_counter obs name =
  match Nab_obs.find_metric obs name with Some m -> m.Nab_obs.m_sum | None -> 0.0

let plan_cache_totals () =
  List.fold_left
    (fun (h, m) (_, s) -> (h + s.Plan_cache.hits, m + s.Plan_cache.misses))
    (0, 0) (Plan_cache.global_stats ())

(* Reference seconds per field multiply-accumulate of a 4096-symbol axpy
   at degree m: the floor any counted flop could cost. *)
let axpy_flop_s m =
  let fld = Nab_field.Gf2p.create m in
  let k = Kernel.of_field fld in
  let st = Random.State.make [| m |] in
  let len = 4096 in
  let x = Array.init len (fun _ -> Nab_field.Gf2p.random fld st) in
  let y = Array.init len (fun _ -> Nab_field.Gf2p.random fld st) in
  let a = 2 + Random.State.int st 100 in
  time_call (fun () -> Kernel.axpy_row k ~a ~x ~y) /. float_of_int len

(* Every per-layer metric, in BENCHMARK.json order. A workload reports 0
   for a layer it does not exercise. *)
let layer_units =
  [
    ("equality_check.self_ms", "ms");
    ("equality_check.bits", "bit");
    ("coding.encode_us", "us");
    ("coding.check_us", "us");
    ("kernel.flops", "count");
    ("equality_check.floor_ms", "ms");
    ("flags.self_ms", "ms");
    ("flags.rounds", "count");
    ("flags.bits", "bit");
    ("phase1.self_ms", "ms");
    ("phase1.rounds", "count");
    ("phase1.bits", "bit");
    ("plan.cold_ms", "ms");
    ("plan_cache.hits", "count");
    ("plan_cache.misses", "count");
    ("dispute.self_ms", "ms");
    ("dispute.runs", "count");
    ("sim.round_ms", "ms");
    ("sim.rounds", "count");
    ("stream_data.self_ms", "ms");
    ("stream_flags.self_ms", "ms");
    ("stream.data_rounds", "count");
    ("stream.flag_batches", "count");
    ("stream.rollbacks", "count");
    ("runner.scenario_ms", "ms");
    ("store.add_us", "us");
    ("store.commit_ms", "ms");
    ("store.seal_ms", "ms");
    ("analyze.rows_per_s", "1/s");
    ("gc.minor_words_per_op", "word");
    ("probe.ms", "ms");
    ("raw.op_ms", "ms");
    ("trace.coverage", "ratio");
    ("trace.overhead", "ratio");
  ]

let report_layers r values =
  let names = List.map fst values in
  List.iter
    (fun name ->
      if not (List.mem_assoc name layer_units) then invalid_arg ("unknown layer metric " ^ name))
    names;
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "a layer metric is given twice";
  List.iter
    (fun (name, unit) ->
      metric r name (match List.assoc_opt name values with Some v -> v | None -> 0.0) unit)
    layer_units

(* Phase-clock layers common to the protocol workloads. *)
let protocol_layer_values l =
  [
    ("equality_check.self_ms", self_ms l "equality-check");
    ("flags.self_ms", self_ms l "flags");
    ("phase1.self_ms", self_ms l "phase1");
    ("dispute.self_ms", self_ms l "dispute-control");
    ("sim.round_ms", per_op l l.sim_ms);
    ("sim.rounds", per_op l (float_of_int l.rounds));
    ("stream_data.self_ms", self_ms l "stream-data");
    ("stream_flags.self_ms", self_ms l "stream-flags");
    ("trace.coverage", coverage l);
  ]

(* Per-op round and bit counts the session obs context collected. *)
let protocol_counts obs ops =
  let c name = obs_counter obs name /. ops in
  [
    ("equality_check.bits", c "sim.phase.equality-check.bits");
    ("flags.rounds", c "sim.phase.flags.rounds");
    ("flags.bits", c "sim.phase.flags.bits");
    ("phase1.rounds", c "sim.phase.phase1.rounds");
    ("phase1.bits", c "sim.phase.phase1.bits");
    ("dispute.runs", c "nab.dc_runs");
  ]

(* Runtime and harness guards, from an untraced pass. *)
let harness_values ~probes ~raws ~minor_words ~ops =
  [
    ("gc.minor_words_per_op", minor_words /. float_of_int ops);
    ("probe.ms", 1000.0 *. median probes);
    ("raw.op_ms", 1000.0 *. median raws);
  ]

let run_pass ~deadline body =
  let m = meter () in
  let op_s = ref [] and raws = ref [] and lat = ref [] and sims = ref [] in
  let record s = op_s := norm s :: !op_s; raws := s.raw :: !raws in
  let w0 = Gc.minor_words () in
  while now () < deadline || !op_s = [] do
    body m ~record ~latency:(fun x -> lat := x :: !lat) ~sim:(fun x -> sims := x :: !sims)
  done;
  {
    op_s = !op_s;
    raws = !raws;
    probes = m.probes;
    latencies_ms = !lat;
    sims = !sims;
    minor_words = Gc.minor_words () -. w0;
  }

(* Layer calls on a workload's own plan and value size: cold planning,
   coding encode/check on one edge, and the kernel floor of the flops an
   operation issued. *)
let plan_layers ~config ~g ~rng ~flops_per_op =
  let plan () = Nab.plan ~config ~total_n:(Digraph.num_vertices g) ~disputes:[] g in
  let coding = (plan ()).Nab.plan_coding in
  let m = config.Nab.m in
  let value_bits = Nab.padded_bits ~l:config.Nab.l_bits ~rho:(Coding.rho coding) ~m in
  let x = Bitvec.to_symbols (Bitvec.random value_bits rng) ~sym_bits:m in
  let u, v, _ = List.hd (Digraph.edges g) in
  let edge = (u, v) in
  let y = Coding.encode coding ~edge x in
  [
    ( "plan.cold_ms",
      1000.0
      *. cold_median ~budget:0.0 ~reps:3 (fun () ->
             Plan_cache.clear_all ();
             plan ()) );
    ("coding.encode_us", 1e6 *. time_call (fun () -> Coding.encode coding ~edge x));
    ("coding.check_us", 1e6 *. time_call (fun () -> Coding.check coding ~edge ~x ~received:y));
    ("kernel.flops", flops_per_op);
    ("equality_check.floor_ms", 1000.0 *. flops_per_op *. axpy_flop_s m);
  ]

(* ------------------------------ serial workloads ------------------------------ *)

type serial = { g : Digraph.t; config : Nab.config }

let serial_data () =
  { g = Gen.complete ~n:7 ~cap:2; config = Nab.config ~f:1 ~l_bits:4096 ~m:16 () }

let serial_flags () =
  { g = Gen.complete ~n:10 ~cap:2; config = Nab.config ~f:2 ~l_bits:1024 ~m:16 () }

(* Broadcasts per session: sessions are recycled so the instance history,
   and with it the heap, stays bounded however long the run. *)
let session_ops = 16

let serial_session ?obs ?transport w =
  Nab.create_session ?obs ?transport ~g:w.g ~config:w.config ~adversary:Adversary.none ()

(* What the traced pass threads through the operations. *)
type tracing = { clock : Phase_clock.t; obs : Nab_obs.ctx; layers : layers }

(* One session of [session_ops] broadcasts; every decision is checked. *)
let serial_body r w ~rng ~tracing m ~record ~latency ~sim =
  let clock = Option.map (fun t -> t.clock) tracing in
  let obs = Option.map (fun t -> t.obs) tracing in
  let transport = Option.map (fun c -> Phase_clock.factory c Sim.default_factory) clock in
  let ses = serial_session ?obs ?transport w in
  let inputs = Array.init session_ops (fun _ -> Bitvec.random w.config.Nab.l_bits rng) in
  let ok = Array.make session_ops true in
  for i = 0 to session_ops - 1 do
    Option.iter Phase_clock.reset clock;
    let report, s =
      timed m (fun () ->
          let report = Nab.session_broadcast ses inputs.(i) in
          end_op clock;
          report)
    in
    Option.iter (fun t -> collect t.layers t.clock s) tracing;
    record s;
    latency (1000.0 *. norm s);
    ok.(i) <-
      List.length report.Nab.decisions = Digraph.num_vertices w.g
      && List.for_all (fun (_, d) -> Bitvec.equal d inputs.(i)) report.Nab.decisions
  done;
  let rr = Nab.session_report ses in
  let lib_ok = Nab.fault_free_agree rr && Nab.valid_outputs rr ~inputs:(fun k -> inputs.(k - 1)) in
  if not lib_ok then problem r "fault_free_agree/valid_outputs rejected a session";
  Array.iter (fun o -> count r (o && lib_ok)) ok;
  sim rr.Nab.throughput_pipelined

let run_serial r w ~seed ~seconds ~trace =
  let rng = Random.State.make [| seed; 0x5e41 |] in
  let config = w.config in
  let setup =
    cold_median ~reps:5 (fun () ->
        Plan_cache.clear_all ();
        Nab.session_plan_for (serial_session w) ~source:config.Nab.source)
  in
  (* Warm-up session (plans cached, code paths touched), not counted. *)
  ignore (run_pass ~deadline:0.0 (serial_body (result ()) w ~rng ~tracing:None));
  let bits = float_of_int config.Nab.l_bits in
  let pass secs = run_pass ~deadline:(now () +. secs) (serial_body r w ~rng ~tracing:None) in
  if not trace then report_pass r (pass seconds) ~bits_per_op:bits ~setup
  else begin
    let plain = pass (seconds /. 2.0) in
    let clock = Phase_clock.create () in
    let obs = Nab_obs.make [ Nab_obs.buffer_csv_sink (Buffer.create 4096) ] in
    let l = layers () in
    let h0, m0 = plan_cache_totals () in
    let k0 = Kernel.stats () in
    let traced =
      run_pass
        ~deadline:(now () +. (seconds /. 2.0))
        (serial_body r w ~rng ~tracing:(Some { clock; obs; layers = l }))
    in
    let h1, m1 = plan_cache_totals () in
    let flops = float_of_int (Kernel.diff_stats k0 (Kernel.stats ())).Kernel.flops in
    let ops = float_of_int l.ops in
    report_layers r
      (protocol_layer_values l @ protocol_counts obs ops
      @ harness_values ~probes:plain.probes ~raws:plain.raws ~minor_words:plain.minor_words
          ~ops:(List.length plain.op_s)
      @ plan_layers ~config ~g:w.g ~rng ~flops_per_op:(flops /. ops)
      @ [
          ("plan_cache.hits", float_of_int (h1 - h0) /. ops);
          ("plan_cache.misses", float_of_int (m1 - m0) /. ops);
          ("trace.overhead", median plain.op_s /. median traced.op_s);
        ])
  end

(* ------------------------------ stream workload ------------------------------ *)

let stream_q = 256
let stream_window = 64
let stream_graph () = Gen.hypercube ~dims:4 ~cap:2
let stream_config () = Nab.config ~f:1 ~l_bits:256 ~m:16 ()

(* One stream of [stream_q] values submitted at once and drained. Each
   value's latency runs from the start of the operation to the first round
   after it finalized (the clock's round hook stamps finalizations). *)
let stream_body r ~g ~config ~rng ~clock ~tracing m ~record ~latency ~sim =
  let clocked = tracing <> None in
  let obs = Option.map (fun t -> t.obs) tracing in
  let inputs = Array.init stream_q (fun _ -> Bitvec.random config.Nab.l_bits rng) in
  let fin = Array.make stream_q nan in
  let transport = Phase_clock.factory ~timed:clocked clock Sim.default_factory in
  Phase_clock.reset clock;
  let rep, s =
    timed_long m (fun ~inner ~elapsed ->
        if clocked then Phase_clock.switch clock "stream-data";
        let st =
          Nab_stream.create ?obs ~transport ~window:stream_window ~g ~config
            ~adversary:Adversary.none ()
        in
        let ses = Nab_stream.session st in
        let first = Nab.session_next_k ses in
        let next = ref first in
        let stamp () =
          let k = Nab.session_next_k ses in
          if k > !next then begin
            let t = elapsed () in
            for i = !next to k - 1 do
              fin.(i - first) <- t
            done;
            next := k
          end
        in
        (* The inner probes run under their own label, outside every layer. *)
        let around probe =
          let label = clock.Phase_clock.label in
          Phase_clock.switch clock "probe";
          probe ();
          Phase_clock.switch clock label
        in
        clock.Phase_clock.on_round <-
          (fun () ->
            stamp ();
            inner ~around);
        Array.iter (fun v -> ignore (Nab_stream.submit st v)) inputs;
        Nab_stream.drain st;
        stamp ();
        end_op (Some clock);
        clock.Phase_clock.on_round <- ignore;
        let rep = Nab_stream.report st in
        Nab_stream.close st;
        rep)
  in
  Option.iter (fun t -> collect t.layers clock s) tracing;
  record s;
  Array.iter (fun t -> latency (1000.0 *. t *. scale s)) fin;
  let first = match rep.Nab_stream.run.Nab.instances with i :: _ -> i.Nab.k | [] -> 1 in
  let ok =
    rep.Nab_stream.delivered = stream_q
    && Array.for_all Float.is_finite fin
    && Nab.fault_free_agree rep.Nab_stream.run
    && Nab.valid_outputs rep.Nab_stream.run ~inputs:(fun k -> inputs.(k - first))
  in
  if not ok then problem r "a stream did not deliver every value in agreement";
  count r ok;
  sim rep.Nab_stream.goodput;
  rep

let run_stream r ~seed ~seconds ~trace =
  let rng = Random.State.make [| seed; 0x57e4 |] in
  let g = stream_graph () and config = stream_config () in
  let setup =
    cold_median ~reps:5 (fun () ->
        Plan_cache.clear_all ();
        Nab_stream.close
          (Nab_stream.create ~window:stream_window ~g ~config ~adversary:Adversary.none ()))
  in
  let clock = Phase_clock.create () in
  let untraced m ~record ~latency ~sim =
    ignore (stream_body r ~g ~config ~rng ~clock ~tracing:None m ~record ~latency ~sim)
  in
  ignore (run_pass ~deadline:0.0 untraced);
  let bits = float_of_int (stream_q * config.Nab.l_bits) in
  if not trace then
    report_pass r (run_pass ~deadline:(now () +. seconds) untraced) ~bits_per_op:bits ~setup
  else begin
    let plain = run_pass ~deadline:(now () +. (seconds /. 2.0)) untraced in
    let obs = Nab_obs.make [ Nab_obs.buffer_csv_sink (Buffer.create 4096) ] in
    let l = layers () in
    let reps = ref [] in
    let h0, m0 = plan_cache_totals () in
    let k0 = Kernel.stats () in
    let traced =
      run_pass
        ~deadline:(now () +. (seconds /. 2.0))
        (fun m ~record ~latency ~sim ->
          reps :=
            stream_body r ~g ~config ~rng ~clock
              ~tracing:(Some { clock; obs; layers = l })
              m ~record ~latency ~sim
            :: !reps)
    in
    let h1, m1 = plan_cache_totals () in
    let ops = float_of_int l.ops in
    let rep_mean f = sum (List.map (fun rp -> float_of_int (f rp)) !reps) /. ops in
    let flops = float_of_int (Kernel.diff_stats k0 (Kernel.stats ())).Kernel.flops in
    report_layers r
      (protocol_layer_values l
      @ harness_values ~probes:plain.probes ~raws:plain.raws ~minor_words:plain.minor_words
          ~ops:(List.length plain.op_s)
      @ plan_layers ~config ~g ~rng ~flops_per_op:(flops /. ops)
      @ [
          ("plan_cache.hits", float_of_int (h1 - h0) /. ops);
          ("plan_cache.misses", float_of_int (m1 - m0) /. ops);
          ("stream.data_rounds", rep_mean (fun rp -> rp.Nab_stream.data_rounds));
          ("stream.flag_batches", rep_mean (fun rp -> rp.Nab_stream.flag_batches));
          ("stream.rollbacks", rep_mean (fun rp -> rp.Nab_stream.rollbacks));
          ("dispute.runs", rep_mean (fun rp -> rp.Nab_stream.run.Nab.dc_count));
          ("trace.overhead", median plain.op_s /. median traced.op_s);
        ])
  end

(* ------------------------------ campaign workload ------------------------------ *)

let campaign_trials = 100
let store_salt = "nabbench"

(* Scratch space for campaign stores, inside the working directory. *)
let tmp_root = ".nabbench_tmp"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_store_dir () =
  if not (Sys.file_exists tmp_root) then Sys.mkdir tmp_root 0o755;
  let dir = Filename.concat tmp_root (Printf.sprintf "store-%d" (Unix.getpid ())) in
  rm_rf dir;
  dir

(* The scenario mix is one fixed soak sample, so every seed runs the same
   topologies, fault budgets and adversaries; [seed] re-derives each
   scenario's own seed (its input values and coding matrices). A soak
   sample drawn per seed would move the cost mix itself: five such seeds
   spread scenarios/s by 63% between quartiles. One scenario per id, as the
   store keeps one row per id. *)
let campaign_mix_seed = 11

let campaign_scenarios seed =
  let rng = Random.State.make [| seed; 0xca3b |] in
  let seen = Hashtbl.create 256 in
  Nab_exp.Campaigns.soak ~trials:campaign_trials ~seed:campaign_mix_seed
  |> List.map (fun sc ->
         let sc = { sc with Scenario.seed = Random.State.int rng 1_000_000 } in
         { sc with Scenario.id = Scenario.derive_id sc })
  |> List.filter (fun sc ->
         let id = sc.Scenario.id in
         (not (Hashtbl.mem seen id)) && (Hashtbl.replace seen id (); true))

let outcome_tag = function
  | Runner.Pass -> "pass"
  | Runner.Violation -> "violation"
  | Runner.Error _ -> "error"

type rep = {
  rep_s : float;  (** reference seconds, scenarios through analyze *)
  run_ms : float list;  (** per scenario, Runner.run_scenario only *)
  add_us : float list;
  commit_ms : float;
  seal_ms : float;
  analyze_rows_per_s : float;
  digest : string;
  plans : int * int;  (** plan-cache hits, misses *)
}

(* One cold campaign: caches cleared, every scenario run and stored,
   committed, sealed, and analyzed back. *)
let campaign_rep r scenarios m ~record ~latency ~sim =
  Plan_cache.clear_all ();
  let h0, m0 = plan_cache_totals () in
  let dir = fresh_store_dir () in
  let store, s_open = timed m (fun () -> Store.open_ ~dir ~salt:store_salt ()) in
  let run_ms = ref [] and add_us = ref [] in
  let rows =
    List.map
      (fun sc ->
        let (row, run_raw, add_raw), s =
          timed m (fun () ->
              let t0 = now () in
              let row = Runner.run_scenario sc in
              let t1 = now () in
              Store.add store ~id:sc.Scenario.id ~line:(Json.to_string (Runner.row_to_json row));
              (row, t1 -. t0, now () -. t1))
        in
        record s;
        latency (1000.0 *. norm s);
        run_ms := (1000.0 *. run_raw *. scale s) :: !run_ms;
        add_us := (1e6 *. add_raw *. scale s) :: !add_us;
        let ok = row.Runner.outcome = Runner.Pass in
        if not ok then
          problem r ("scenario " ^ sc.Scenario.id ^ ": " ^ outcome_tag row.Runner.outcome);
        count r ok;
        row)
      scenarios
  in
  let (), s_commit = timed m (fun () -> Store.commit store) in
  let (), s_seal = timed m (fun () -> Store.seal store) in
  Store.close store;
  let analyzed, s_analyze = timed m (fun () -> Analyze.of_source (Analyze.Store_dir dir)) in
  let analyzed_rows =
    match analyzed with
    | Ok t -> (
        match Json.member "rows" (Analyze.to_json t) with Some (Json.Int n) -> n | _ -> -1)
    | Error e ->
        problem r ("analyze: " ^ e);
        -1
  in
  if analyzed_rows <> List.length scenarios then
    problem r "analyze row count differs from the campaign";
  rm_rf dir;
  let h1, m1 = plan_cache_totals () in
  let stat name row =
    match List.assoc_opt name row.Runner.stats with
    | Some j -> Option.value (Json.get_float j) ~default:nan
    | None -> nan
  in
  let pipelined = List.map (stat "throughput_pipelined") rows in
  sim (median pipelined);
  {
    rep_s =
      sum (List.map norm [ s_open; s_commit; s_seal; s_analyze ]) +. (sum !run_ms /. 1000.0)
      +. (sum !add_us /. 1e6);
    run_ms = !run_ms;
    add_us = !add_us;
    commit_ms = 1000.0 *. norm s_commit;
    seal_ms = 1000.0 *. norm s_seal;
    analyze_rows_per_s = float_of_int analyzed_rows /. norm s_analyze;
    digest =
      Digest.to_hex
        (Digest.string
           (String.concat "\n"
              (List.map
                 (fun row -> row.Runner.scenario.Scenario.id ^ " " ^ outcome_tag row.Runner.outcome)
                 rows)));
    plans = (h1 - h0, m1 - m0);
  }

let run_campaign r ~seed ~seconds ~trace =
  let setup =
    cold_median ~reps:5 (fun () ->
        let scenarios = campaign_scenarios seed in
        let store = Store.open_ ~dir:(fresh_store_dir ()) ~salt:store_salt () in
        Store.close store;
        scenarios)
  in
  let scenarios = campaign_scenarios seed in
  let n = List.length scenarios in
  let reps = ref [] in
  let body m ~record ~latency ~sim =
    reps := campaign_rep r scenarios m ~record ~latency ~sim :: !reps
  in
  let k0 = Kernel.stats () in
  let p = run_pass ~deadline:(now () +. seconds) body in
  let flops = float_of_int (Kernel.diff_stats k0 (Kernel.stats ())).Kernel.flops in
  print_raw p;
  ignore (repeated r "campaign id/outcome digest" (List.map (fun rp -> rp.digest) !reps));
  let sim_goodput = repeated r "sim_goodput" p.sims in
  let total_s = sum (List.map (fun rp -> rp.rep_s) !reps) in
  let nreps = float_of_int (List.length !reps) in
  let bits =
    float_of_int
      (List.fold_left (fun a sc -> a + (sc.Scenario.l_bits * sc.Scenario.q)) 0 scenarios)
  in
  if not trace then
    (* Campaign throughput counts the store and analyze steps too. *)
    report_e2e r ~latencies_ms:p.latencies_ms ~goodput_bps:(bits *. nreps /. total_s)
      ~ops_per_s:(float_of_int n *. nreps /. total_s)
      ~sim_goodput ~setup
  else begin
    let all f = List.concat_map f !reps in
    let mean xs = sum xs /. float_of_int (List.length xs) in
    let hits = List.fold_left (fun a rp -> a + fst rp.plans) 0 !reps in
    let misses = List.fold_left (fun a rp -> a + snd rp.plans) 0 !reps in
    let ops = float_of_int n *. nreps in
    (* Runner fixes its own transport, so the protocol layers of the same
       scenarios are split by a replay through Nab.run, once plain and once
       under the phase clock (plans warm in both). *)
    let clock = Phase_clock.create () in
    let obs = Nab_obs.make [ Nab_obs.buffer_csv_sink (Buffer.create 4096) ] in
    let l = layers () in
    let replay ~tracing =
      let m = meter () in
      let transport = Phase_clock.factory ~timed:tracing clock Sim.default_factory in
      let obs = if tracing then obs else Nab_obs.null in
      sum
        (List.map
           (fun sc ->
             Phase_clock.reset clock;
             let (), s =
               timed m (fun () ->
                   ignore
                     (Nab.run ~obs ~transport ~g:(Scenario.graph sc) ~config:(Scenario.config sc)
                        ~adversary:(Scenario.adversary_t sc) ~inputs:(Scenario.inputs sc)
                        ~q:sc.Scenario.q ());
                   end_op (Some clock))
             in
             if tracing then collect l clock s;
             norm s)
           scenarios)
    in
    let plain_s = replay ~tracing:false in
    let traced_s = replay ~tracing:true in
    report_layers r
      (protocol_layer_values l
      @ protocol_counts obs (float_of_int n)
      @ harness_values ~probes:p.probes ~raws:p.raws ~minor_words:p.minor_words
          ~ops:(List.length p.op_s)
      @ [
          ("kernel.flops", flops /. ops);
          ("equality_check.floor_ms", 1000.0 *. flops /. ops *. axpy_flop_s 16);
          ("plan_cache.hits", float_of_int hits /. ops);
          ("plan_cache.misses", float_of_int misses /. ops);
          ("runner.scenario_ms", mean (all (fun rp -> rp.run_ms)));
          ("store.add_us", mean (all (fun rp -> rp.add_us)));
          ("store.commit_ms", mean (List.map (fun rp -> rp.commit_ms) !reps));
          ("store.seal_ms", mean (List.map (fun rp -> rp.seal_ms) !reps));
          ("analyze.rows_per_s", mean (List.map (fun rp -> rp.analyze_rows_per_s) !reps));
          ("trace.overhead", plain_s /. traced_s);
        ])
  end

(* ------------------------------ main ------------------------------ *)

let workloads = [ "serial-data"; "serial-flags"; "stream"; "campaign" ]

let usage () =
  prerr_endline
    "usage: nabbench --workload {serial-data|serial-flags|stream|campaign} --seed N \
     --seconds S --trace {0|1}";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int_arg k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ();
  let seed = int_arg "seed" in
  let seconds = float_of_int (int_arg "seconds") in
  let trace = match int_arg "trace" with 0 -> false | 1 -> true | _ -> usage () in
  if seconds <= 0.0 then usage ();
  (* One job: no worker domains, so the probe and the operations share one
     core and one heap. *)
  Pool.set_jobs 1;
  let gc0 = Gc.get () and workers0 = Pool.running_workers () in
  let r = result () in
  Printf.printf "nabbench %s seed=%d seconds=%.0f trace=%b\n%!" workload seed seconds trace;
  Fun.protect
    ~finally:(fun () -> rm_rf tmp_root)
    (fun () ->
      match workload with
      | "serial-data" -> run_serial r (serial_data ()) ~seed ~seconds ~trace
      | "serial-flags" -> run_serial r (serial_flags ()) ~seed ~seconds ~trace
      | "stream" -> run_stream r ~seed ~seconds ~trace
      | _ -> run_campaign r ~seed ~seconds ~trace);
  (* The normalization guard: the probe only stands in for the machine if
     the program left the runtime as it found it. *)
  if Gc.get () <> gc0 then problem r "the program changed the GC settings";
  if Pool.running_workers () <> workers0 then problem r "the program started pool workers";
  print_result r
