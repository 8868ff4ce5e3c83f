(* The reference probe: fixed, allocation-heavy work of about 4 ms that
   belongs to the benchmark, not to the library. Its duration tracks how
   fast this process currently runs; every wall-clock metric is divided by
   the probe time measured around the same operation, which cancels the
   slow/fast phases a shared host goes through (see README.md). Its inputs
   never depend on the seed, so its work is identical in every run. *)

let sort_len = 2_000
let churn_ops = 14_000
let alu_iters = 250_000

let sort_input =
  let st = Random.State.make [| 0x9e37 |] in
  Array.init sort_len (fun _ -> Random.State.bits st)

let table = Array.init 256 (fun i -> ((i * 167) + 13) land 255)

let work () =
  (* List sort: allocation plus pointer chasing. *)
  let l = Array.to_list sort_input in
  let s = List.sort compare l in
  (* Hashtbl churn: boxed buckets, resizes, removals. *)
  let h = Hashtbl.create 64 in
  for i = 0 to churn_ops - 1 do
    Hashtbl.replace h (i land 8191) (string_of_int i);
    if i land 3 = 0 then Hashtbl.remove h ((i * 7) land 8191)
  done;
  (* Small-table ALU loop: dependent loads from an L1-resident table. *)
  let acc = ref 0 in
  for i = 0 to alu_iters - 1 do
    acc := table.((!acc lxor i) land 255) + (!acc lsl 1) land 0xffff
  done;
  List.length s + Hashtbl.length h + !acc

(* Seconds one probe takes now. *)
let time () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (work ()));
  Unix.gettimeofday () -. t0

(* The probe duration that defines one reference second: a normalized time
   is [raw *. nominal /. probe], i.e. the time the operation would take on
   a machine where the probe runs in exactly [nominal] seconds. *)
let nominal = 0.004
