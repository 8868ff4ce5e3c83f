(* Lifecycle and equivalence tests for the process-per-node socket backend
   (Nab_net.Socket): per-round inbox identity against the synchronous
   simulator, crash-mid-round surfacing as a clean Socket_error, close
   reaping every node process (no orphans), and fd hygiene across repeated
   create/close cycles. The system-level differential (full run reports
   byte-identical to Sim at zero faults) is gated by bench/socket.exe
   --check and the socket quick campaign; this file tests the transport
   directly. *)

(* Must run before anything else: when this binary is re-executed as a
   socket node process it becomes the node's event loop and never returns
   (in particular it never reaches Alcotest.run). *)
let () = Nab_net.Socket.exec_node_if_requested ()

open Nab_graph
open Nab_net

let availability = Socket.available ()

(* Platforms without process spawning (or working sockets) skip — loudly,
   so a misconfigured CI runner is visible in the logs, but green: the
   gate only binds where the probe says the backend can run at all. *)
let requires_socket f () =
  match availability with
  | Error reason ->
      Printf.printf "SKIP: socket backend unavailable (%s)\n%!" reason
  | Ok () -> f ()

let k4 () = Gen.complete ~n:4 ~cap:8

(* Everyone sends two packets to every other node; two per ordered pair
   exercises the within-group delivery order the synchronous inbox
   contract fixes exactly. *)
let sends g u =
  List.concat_map
    (fun v ->
      if v = u then []
      else
        [
          ( v,
            Packet.direct ~proto:"t1" ~origin:u ~dst:v
              (Wire.Value { bits = 32; data = [| (u * 100) + v |] }) );
          (v, Packet.direct ~proto:"t2" ~origin:u ~dst:v (Wire.Flag (u < v)));
        ])
    (Digraph.vertices g)

(* --------------------------- round identity --------------------------- *)

(* The script every backend runs: three rounds of [sends], the middle one
   with an extra send on a link that does not exist (a self-loop), an
   analytic phase that only ever sees [add_cost], and one more round in a
   phase of its own. *)
let script g =
  let v0 = List.hd (Digraph.vertices g) in
  let self_send u = if u = v0 then [ (v0, snd (List.hd (sends g v0))) ] else [] in
  [
    `Round ("test", sends g);
    `Round ("test", fun u -> sends g u @ self_send u);
    `Round ("test", sends g);
    `Cost ("analytic", 5.0);
    `Round ("second", sends g);
  ]

let test_rounds_match_sim () =
  let g = k4 () in
  let make factory = factory ~obs:Nab_obs.null ~keep_events:true g in
  let sim = make (Sim.factory ()) in
  let others =
    [
      ("Socket", make (Socket.factory ()));
      ("Async_sim", make (Async_sim.factory ~spec:Async_sim.no_faults ()));
    ]
  in
  Fun.protect
    ~finally:(fun () -> List.iter Transport.close (sim :: List.map snd others))
    (fun () ->
      List.iteri
        (fun i step ->
          match step with
          | `Cost (phase, c) ->
              List.iter (fun tr -> Transport.add_cost tr ~phase c) (sim :: List.map snd others)
          | `Round (phase, outbox) ->
              let inbox_sim = Transport.round sim ~phase outbox in
              List.iter
                (fun (name, tr) ->
                  let inbox = Transport.round tr ~phase outbox in
                  List.iter
                    (fun v ->
                      Alcotest.(check bool)
                        (Printf.sprintf "step %d: node %d inbox on %s identical to Sim"
                           i v name)
                        true
                        (inbox_sim v = inbox v))
                    (Digraph.vertices g))
                others)
        (script g);
      Alcotest.(check int) "Sim dropped the self-loop send" 1 (Transport.dropped sim);
      List.iter
        (fun (name, tr) ->
          let same what a b =
            Alcotest.(check bool) (Printf.sprintf "%s %s identical to Sim" name what) true (a = b)
          in
          same "timing" (Transport.timing sim) (Transport.timing tr);
          same "link_bits" (Transport.link_bits sim) (Transport.link_bits tr);
          same "utilization" (Transport.utilization sim) (Transport.utilization tr);
          same "dropped" (Transport.dropped sim) (Transport.dropped tr);
          same "rounds_run" (Transport.rounds_run sim) (Transport.rounds_run tr);
          List.iter
            (fun phase ->
              same ("events_of_phase " ^ phase)
                (Transport.events_of_phase sim phase)
                (Transport.events_of_phase tr phase))
            [ "test"; "analytic"; "second" ])
        others)

(* Drive one round for its exchange side effect, discarding the inbox
   lookup closure it returns. *)
let run_round tr ~phase g =
  let (_ : int -> (int * Packet.t) list) = Transport.round tr ~phase (sends g) in
  ()

(* ----------------------------- lifecycle ------------------------------ *)

(* After close has reaped a pid, waitpid on it must say "not my child":
   anything else is an orphan (or an unreaped zombie). *)
let check_reaped pids =
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _ -> Alcotest.fail (Printf.sprintf "pid %d not reaped by close" pid)
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ())
    pids

let test_crash_mid_round () =
  let g = k4 () in
  let t = Socket.create g in
  let tr = Socket.transport t in
  let pids = Socket.pids t in
  Alcotest.(check int)
    "one process per vertex"
    (Digraph.num_vertices g) (List.length pids);
  (* A clean round first: the fleet is genuinely live. *)
  run_round tr ~phase:"warm" g;
  (* Kill one node, then drive a round: the failure must surface as a
     Socket_error — not a hang, not a wrong inbox, not a stray Unix
     exception. *)
  Unix.kill (List.nth pids 2) Sys.sigkill;
  (match run_round tr ~phase:"crashed" g with
  | () -> Alcotest.fail "round completed with a dead node"
  | exception Socket.Socket_error _ -> ());
  (* close after a failure is still clean, and idempotent. *)
  Socket.close t;
  Socket.close t;
  check_reaped pids;
  (* A dead fleet refuses further rounds rather than misbehaving. *)
  match run_round tr ~phase:"after" g with
  | () -> Alcotest.fail "round on a failed fleet succeeded"
  | exception Socket.Socket_error _ -> ()

let test_clean_close_no_orphans () =
  let g = k4 () in
  let t = Socket.create g in
  let tr = Socket.transport t in
  let pids = Socket.pids t in
  run_round tr ~phase:"r" g;
  Transport.close tr;
  check_reaped pids;
  (* The polite Stop handshake collected every node's traffic counters:
     real bytes moved on real sockets, and no decode errors at zero
     faults. *)
  let stats = Socket.node_stats t in
  Alcotest.(check int) "stats from every node" (Digraph.num_vertices g)
    (List.length stats);
  List.iter
    (fun (v, s) ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d moved bytes cleanly" v)
        true
        (s.Socket.bytes_sent > 0
        && s.Socket.bytes_received > 0
        && s.Socket.decode_errors = 0))
    stats

let count_fds () =
  match Sys.readdir "/proc/self/fd" with
  | entries -> Some (Array.length entries)
  | exception Sys_error _ -> None

let test_no_fd_leak () =
  let g = k4 () in
  let cycle () =
    let t = Socket.create g in
    run_round (Socket.transport t) ~phase:"r" g;
    Socket.close t
  in
  (* One warm-up cycle settles lazy one-time state (signal handling etc.)
     before the measurement window. *)
  cycle ();
  match count_fds () with
  | None -> Printf.printf "SKIP: no /proc/self/fd on this platform\n%!"
  | Some before ->
      for _ = 1 to 5 do
        cycle ()
      done;
      let after = Option.get (count_fds ()) in
      Alcotest.(check int) "fd count stable across create/close cycles" before
        after

(* A fleet created after Pool worker domains are alive: OCaml 5's
   Unix.fork refuses to run in that state, so node spawning must not rely
   on it. Campaign and planning always start workers before the first
   fleet. *)
let test_fleet_after_pool () =
  let squares = Nab_util.Pool.map ~jobs:2 (fun x -> x * x) [ 1; 2; 3; 4 ] in
  Alcotest.(check (list int)) "pool batch ran" [ 1; 4; 9; 16 ] squares;
  Alcotest.(check bool) "worker domains alive" true
    (Nab_util.Pool.running_workers () >= 1);
  (match Socket.available () with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("available after pool start: " ^ e));
  let g = k4 () in
  let t = Socket.create g in
  let pids = Socket.pids t in
  Fun.protect
    ~finally:(fun () -> Socket.close t)
    (fun () -> run_round (Socket.transport t) ~phase:"after-pool" g);
  check_reaped pids

(* -------------------------------- main -------------------------------- *)

let () =
  Alcotest.run "socket"
    [
      ( "round identity",
        [
          Alcotest.test_case "inboxes and accounting match Sim" `Quick
            (requires_socket test_rounds_match_sim);
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "crash mid-round is a clean error" `Quick
            (requires_socket test_crash_mid_round);
          Alcotest.test_case "close reaps every node" `Quick
            (requires_socket test_clean_close_no_orphans);
          Alcotest.test_case "no fd leak across cycles" `Quick
            (requires_socket test_no_fd_leak);
          Alcotest.test_case "fleet after pool workers started" `Quick
            (requires_socket test_fleet_after_pool);
        ] );
    ]
