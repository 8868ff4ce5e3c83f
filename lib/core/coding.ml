open Nab_field
open Nab_matrix
open Nab_graph

type t = {
  fld : Gf2p.t;
  ker : Kernel.t; (* resolved once: encode/check run on fused row kernels *)
  rho : int;
  matrices : (int * int, Matrix.t) Hashtbl.t;
}

let field t = t.fld
let rho t = t.rho

let matrix t ~edge =
  match Hashtbl.find_opt t.matrices edge with
  | Some m -> m
  | None -> raise Not_found

let generate g ~rho ~m ~seed =
  if rho < 1 then invalid_arg "Coding.generate: rho must be >= 1";
  let fld = Gf2p.create m in
  let st = Random.State.make [| seed; rho; m; 0x5eed |] in
  let matrices = Hashtbl.create 32 in
  (* Iterate edges in a canonical order so generation is deterministic. *)
  List.iter
    (fun (s, d, cap) -> Hashtbl.replace matrices (s, d) (Matrix.random fld rho cap st))
    (Digraph.edges g);
  { fld; ker = Kernel.of_field fld; rho; matrices }

(* Stripe count of a value; [fn] names the caller in the error. *)
let stripes_of t ~fn x =
  let len = Array.length x in
  if len mod t.rho <> 0 then invalid_arg (fn ^ ": value length not a multiple of rho");
  len / t.rho

let encode t ~edge x =
  let c = matrix t ~edge in
  let stripes = stripes_of t ~fn:"Coding.encode" x in
  let ze = Matrix.cols c in
  let out = Array.make (stripes * ze) 0 in
  Kernel.mul_stripes t.ker ~x ~xoff:0 ~stripes ~rows:t.rho ~b:(Matrix.raw c) ~boff:0
    ~cols:ze ~y:out ~yoff:0;
  out

let check t ~edge ~x ~received =
  let c = matrix t ~edge in
  let stripes = stripes_of t ~fn:"Coding.check" x in
  let ze = Matrix.cols c in
  (* The kernel stops at the first mismatching stripe: a faulty stripe
     costs the stripes up to it, not a full re-encode. *)
  Array.length received = stripes * ze
  && Kernel.stripes_equal t.ker ~x ~xoff:0 ~stripes ~rows:t.rho ~b:(Matrix.raw c)
       ~boff:0 ~cols:ze ~y:received ~yoff:0

(* Appendix C: expand C_e (rho x z_e) into B_e ((|h|-1) * rho x z_e). In
   characteristic 2 the -C_e blocks equal C_e, so each edge contributes its
   C_e at the block row of each non-reference endpoint. *)
let expanded_matrix t ~h =
  let verts = Digraph.vertices h in
  let nh = List.length verts in
  if nh < 2 then invalid_arg "Coding.expanded_matrix: subgraph too small";
  let reference = List.nth verts (nh - 1) in
  let block_index =
    let tbl = Hashtbl.create nh in
    List.iteri (fun i v -> if v <> reference then Hashtbl.add tbl v i) verts;
    tbl
  in
  let nblocks = nh - 1 in
  let expand (i, j) ce =
    let rows = nblocks * t.rho and cols = Matrix.cols ce in
    Matrix.init rows cols (fun r c ->
        let block = r / t.rho and within = r mod t.rho in
        let hit v = v <> reference && Hashtbl.find block_index v = block in
        if hit i || hit j then Matrix.get ce within c else 0)
  in
  let blocks =
    List.map (fun (s, d, _) -> expand (s, d) (matrix t ~edge:(s, d))) (Digraph.edges h)
  in
  Matrix.hcat_list ~rows:(nblocks * t.rho) blocks

let correct_for t ~h =
  Gauss.has_invertible_submatrix t.fld (expanded_matrix t ~h)

let is_correct t ~g ~omega =
  List.for_all (fun vset -> correct_for t ~h:(Digraph.induced g vset)) omega

let generate_correct g ~omega ~rho ~m ~seed ?(max_attempts = 64) () =
  let rec go attempt =
    if attempt > max_attempts then
      failwith "Coding.generate_correct: exhausted attempts (field too small?)"
    else begin
      let t = generate g ~rho ~m ~seed:(seed + (attempt * 7919)) in
      if is_correct t ~g ~omega then (t, attempt) else go (attempt + 1)
    end
  in
  go 1

let binomial n k =
  let k = min k (n - k) in
  if k < 0 then 0.0
  else begin
    let acc = ref 1.0 in
    for i = 1 to k do
      acc := !acc *. float_of_int (n - k + i) /. float_of_int i
    done;
    !acc
  end

let failure_bound ~n ~f ~rho ~m =
  let b = binomial n (n - f) *. float_of_int ((n - f - 1) * rho) *. (2.0 ** float_of_int (-m)) in
  Float.min 1.0 b
