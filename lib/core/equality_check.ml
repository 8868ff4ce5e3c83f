open Nab_graph
open Nab_net

let proto = "ec"

type adversary = me:int -> dst:int -> int array -> int array

let honest ~me:_ ~dst:_ y = y

let expected_send coding ~edge ~x =
  let sym_bits = Nab_field.Gf2p.degree (Coding.field coding) in
  Wire.Coded { sym_bits; data = Coding.encode coding ~edge x }

let payload_symbols ~sym_bits = function
  | Some (Wire.Coded { sym_bits = sb; data }) when sb = sym_bits -> Some data
  | Some _ | None -> None

let expected_flag coding ~graph ~me ~x ~received =
  let sym_bits = Nab_field.Gf2p.degree (Coding.field coding) in
  List.exists
    (fun (src, _) ->
      match payload_symbols ~sym_bits (received ~src) with
      | None -> true (* missing or malformed = default value = mismatch *)
      | Some data -> not (Coding.check coding ~edge:(src, me) ~x ~received:data))
    (Digraph.in_edges graph me)

let run ~net ?graph ~phase ~coding ~values ~faulty ?(adversary = honest) () =
  let g = match graph with Some g -> g | None -> Transport.graph net in
  let verts = Digraph.vertices g in
  let obs = Transport.obs net in
  (* Hoisted once: every outgoing packet of every node shares the field. *)
  let sym_bits = Nab_field.Gf2p.degree (Coding.field coding) in
  if Nab_obs.enabled obs then
    Nab_obs.span_begin obs ~scope:"proto" ~t:(Transport.timing net).Transport.wall
      ~attrs:
        [
          ("phase", Nab_obs.S phase);
          ("rho", Nab_obs.I (Coding.rho coding));
          ("m", Nab_obs.I (Nab_field.Gf2p.degree (Coding.field coding)));
        ]
      "equality-check";
  let outbox v =
    List.map
      (fun (dst, _) ->
        let y = Coding.encode coding ~edge:(v, dst) (values v) in
        let y = if Vset.mem v faulty then adversary ~me:v ~dst y else y in
        (dst, Packet.direct ~proto ~origin:v ~dst (Wire.Coded { sym_bits; data = y })))
      (Digraph.out_edges g v)
  in
  let inbox = Transport.round net ~phase outbox in
  let flags =
    List.map
      (fun v ->
        (* The inbox indexed by sender once; the first [ec] packet from a
           sender wins. *)
        let by_src = Hashtbl.create 8 in
        List.iter
          (fun (s, (pkt : Packet.t)) ->
            if pkt.proto = proto && not (Hashtbl.mem by_src s) then
              Hashtbl.add by_src s pkt.payload)
          (inbox v);
        let received ~src = Hashtbl.find_opt by_src src in
        (v, expected_flag coding ~graph:g ~me:v ~x:(values v) ~received))
      verts
  in
  if Nab_obs.enabled obs then begin
    let mismatches = List.length (List.filter snd flags) in
    Nab_obs.add obs "ec.mismatch_flags" mismatches;
    Nab_obs.span_end obs ~scope:"proto" ~t:(Transport.timing net).Transport.wall
      ~attrs:[ ("mismatch_flags", Nab_obs.I mismatches) ]
      "equality-check"
  end;
  flags
