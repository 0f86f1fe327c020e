(* The zen benchmark's workload program.

   One process runs one episode of one workload, built from a seed, and
   prints one JSON object on stdout; run.py in this directory spawns the
   episodes, checks them and aggregates the metrics.  The workloads reach
   the library only through its public entry points and pass no
   mode-selecting optional argument, so they measure the defaults a user
   gets.

   Usage: zenbench.exe WORKLOAD SEED [--trace PREFIX]

   With --trace the calls into each layer (netkat, controller, openflow,
   flow, dataplane) are timed from this file, one span per call with the
   op as parent, and PREFIX.trace.json (Chrome trace events) and
   PREFIX.layers.txt (per-layer self time) are written.  A traced episode
   must report the same exact metrics as an untraced one of the same
   seed; run.py checks that. *)

let process_start = Unix.gettimeofday ()
let wall = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Spans *)

type span = { id : int; parent : int; name : string; t0 : float; dur : float }

let tracing = ref false
let spans : span list ref = ref []
let next_span = ref 0
let open_span = ref 0

let span name f =
  if not !tracing then f ()
  else begin
    incr next_span;
    let id = !next_span and parent = !open_span in
    open_span := id;
    let t0 = wall () in
    Fun.protect f ~finally:(fun () ->
      spans := { id; parent; name; t0; dur = wall () -. t0 } :: !spans;
      open_span := parent)
  end

(* a span measured in one piece outside any op (side measurements) *)
let side_span name t0 =
  if !tracing then begin
    incr next_span;
    spans :=
      { id = !next_span; parent = 0; name; t0; dur = wall () -. t0 } :: !spans
  end

(* ------------------------------------------------------------------ *)
(* Episode record *)

type episode = {
  mutable setup_end : float;     (* absolute wall time of the first op *)
  mutable op_ms : float list;    (* wall time of each op *)
  mutable spin_ms : float list;  (* reference spin after each op *)
  mutable delivered : int;       (* data packets delivered during ops *)
  mutable expected : int;        (* packets that should have been *)
  mutable delivered_expected : int;  (* delivered among the expected *)
  mutable checks : int;
  mutable failures : string list;
  mutable star : (string * float) list;  (* exact, fixed by the seed *)
  mutable digest : string;       (* hash of final tables / fault trace *)
}

let new_episode () =
  { setup_end = 0.0; op_ms = []; spin_ms = []; delivered = 0; expected = 0;
    delivered_expected = 0; checks = 0; failures = []; star = [];
    digest = "" }

let check ep ok what =
  ep.checks <- ep.checks + 1;
  if not ok then ep.failures <- what :: ep.failures

(* A fixed integer loop run after every op, outside the timed window: it
   shows how fast the host was while the op ran. *)
let spin () =
  let t0 = wall () in
  let r = ref 0 in
  for i = 1 to 2_000_000 do
    r := !r lxor (i * 7)
  done;
  ignore (Sys.opaque_identity !r);
  (wall () -. t0) *. 1e3

let timed_op ep f =
  let t0 = wall () in
  span "op" f;
  ep.op_ms <- ((wall () -. t0) *. 1e3) :: ep.op_ms;
  ep.spin_ms <- spin () :: ep.spin_ms

let pct xs p = match xs with [] -> 0.0 | _ -> Util.Stats.percentile xs p
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Exact metrics shared by the workloads *)

let sum_tables net f =
  List.fold_left
    (fun acc (sw : Dataplane.Network.switch) -> acc + f sw.table)
    0
    (Dataplane.Network.switch_list net)

let dataplane_star net =
  let s = Dataplane.Network.stats net in
  let hits = sum_tables net Flow.Table.cache_hits in
  let misses = sum_tables net Flow.Table.cache_misses in
  [ ("flow.cache_hit_ratio", ratio hits (hits + misses));
    ("flow.invalidations", float_of_int (sum_tables net Flow.Table.invalidations));
    ( "flow.classifier_probes_per_miss",
      ratio (sum_tables net Flow.Table.classifier_probes) misses );
    ( "dataplane.events",
      float_of_int (Dataplane.Sim.executed (Dataplane.Network.sim net)) );
    ("dataplane.drops_queue", float_of_int s.dropped_queue);
    ("dataplane.drops_chaos", float_of_int s.dropped_chaos);
    ("dataplane.ctl_msgs", float_of_int s.control_msgs);
    ("dataplane.fenced_writes", float_of_int s.fenced_writes) ]

let runtime_star runtimes =
  let sum f =
    List.fold_left
      (fun acc rt -> acc + f (Controller.Runtime.resilience_stats rt))
      0 runtimes
  in
  let recovery = List.concat_map Controller.Runtime.recovery_times runtimes in
  [ ("controller.acked_batches", float_of_int (sum (fun s -> s.acked_batches)));
    ("controller.retransmits", float_of_int (sum (fun s -> s.retransmits)));
    ( "controller.resyncs",
      float_of_int (sum (fun s -> s.resyncs + s.selective_resyncs)) );
    ( "controller.resync_kb",
      float_of_int (sum (fun s -> s.resync_bytes_selective)) /. 1024.0 );
    ("controller.recovery_sim_ms_p50", 1e3 *. pct recovery 50.0) ]

let replica_star ?replica () =
  match replica with
  | None ->
    [ ("controller.replica.repl_msgs", 0.0);
      ("controller.replica.takeovers", 0.0);
      ("controller.failover_sim_ms_p50", 0.0);
      ("controller.failover_sim_ms_max", 0.0) ]
  | Some r ->
    let s = Controller.Replica.stats r in
    let samples = Controller.Replica.failover_samples r in
    [ ("controller.replica.repl_msgs", float_of_int s.repl_msgs);
      ("controller.replica.takeovers", float_of_int s.takeovers_completed);
      ("controller.failover_sim_ms_p50", 1e3 *. pct samples 50.0);
      ("controller.failover_sim_ms_max", 1e3 *. pct samples 100.0) ]

(* control-channel load of the ops, per op *)
type ctl_meter = { mutable bytes : int; mutable msgs : int; mutable ops : int }

let metered meter net f =
  let s = Dataplane.Network.stats net in
  let b0 = s.control_bytes and m0 = s.control_msgs in
  f ();
  meter.bytes <- meter.bytes + s.control_bytes - b0;
  meter.msgs <- meter.msgs + s.control_msgs - m0;
  meter.ops <- meter.ops + 1

let ctl_star meter =
  let per x = if meter.ops = 0 then 0.0 else float_of_int x /. float_of_int meter.ops in
  [ ("openflow.ctl_kb_per_op", per meter.bytes /. 1024.0);
    ("openflow.msgs_per_op", per meter.msgs) ]

let rule_key (r : Flow.Table.rule) = (r.priority, r.pattern, r.actions)
let table_keys table = List.sort compare (List.map rule_key (Flow.Table.rules table))

let tables_digest net =
  Dataplane.Network.switch_list net
  |> List.map (fun (sw : Dataplane.Network.switch) -> (sw.sw_id, table_keys sw.table))
  |> fun l -> Digest.to_hex (Digest.string (Marshal.to_string l []))

(* ------------------------------------------------------------------ *)
(* Side measurements (traced episodes only, outside the ops) *)

type side = {
  mutable batches : Openflow.Message.t list list;  (* what the ops shipped *)
  mutable n_batches : int;
  mutable lookups : (Flow.Table.t * Packet.Headers.t) list;
  mutable metrics : (string * float) list;
}

let new_side () = { batches = []; n_batches = 0; lookups = []; metrics = [] }

let max_captured = 400

let capture side msgs =
  if !tracing && side.n_batches < max_captured then begin
    side.batches <- msgs :: side.batches;
    side.n_batches <- side.n_batches + 1
  end

(* close a side measurement begun at [t0]: a span [name] and the metric
   [metric], its time per unit of work in [scale] units *)
let per_unit side name metric ~scale t0 count =
  let dt = wall () -. t0 in
  side_span name t0;
  side.metrics <-
    (metric, if count = 0 then 0.0 else dt *. scale /. float_of_int count)
    :: side.metrics

(* encode, decode and table-apply the batches the ops shipped *)
let side_codec side =
  let frames = List.rev_map (List.mapi (fun i m -> (i + 1, m))) side.batches in
  let msgs = List.fold_left (fun acc f -> acc + List.length f) 0 frames in
  let t0 = wall () in
  let encoded = List.map Openflow.Wire.encode_batch frames in
  per_unit side "openflow.encode" "openflow.encode_us_per_msg" ~scale:1e6 t0 msgs;
  let t0 = wall () in
  let decoded = List.map Openflow.Wire.decode_all encoded in
  per_unit side "openflow.decode" "openflow.decode_us_per_msg" ~scale:1e6 t0 msgs;
  let mods =
    List.map
      (List.filter_map (fun (_, (m : Openflow.Message.t)) ->
         match m with Flow_mod fm -> Some fm | _ -> None))
      decoded
  in
  let n_mods = List.fold_left (fun acc b -> acc + List.length b) 0 mods in
  let t0 = wall () in
  List.iter
    (fun batch ->
      let table = Flow.Table.create () in
      List.iter (Controller.Runtime.shadow_apply table) batch)
    mods;
  per_unit side "flow.apply" "flow.apply_us_per_mod" ~scale:1e6 t0 n_mods;
  side.batches <- []

(* table lookups of the workload's own header mix; [fresh_ports] gives
   every lookup a new source port, as the failover-chaos traffic does *)
let side_lookup side ~fresh_ports ~rounds =
  let port = ref 0 in
  let t0 = wall () in
  for _ = 1 to rounds do
    List.iter
      (fun (table, (hdr : Packet.Headers.t)) ->
        let hdr =
          if fresh_ports then begin
            incr port;
            { hdr with tp_src = 1024 + (!port mod 60000) }
          end
          else hdr
        in
        ignore (Sys.opaque_identity (Flow.Table.lookup table hdr)))
      side.lookups
  done;
  per_unit side "flow.lookup" "flow.lookup_ns" ~scale:1e9 t0 (rounds * List.length side.lookups)

let located topo net (hdr : Packet.Headers.t) ~src =
  match Topo.Topology.attachment topo src with
  | Some (sw, port) ->
    Some
      ( (Dataplane.Network.switch net sw).table,
        { hdr with switch = sw; in_port = port } )
  | None -> None

(* count deliveries per key at every host *)
let hook_receive net key =
  let got = Hashtbl.create 256 in
  List.iter
    (fun (h : Dataplane.Network.host) ->
      let previous = h.on_receive in
      h.on_receive <-
        Some
          (fun pkt ->
            (match previous with Some f -> f pkt | None -> ());
            let k = key pkt in
            Hashtbl.replace got k
              (1 + Option.value (Hashtbl.find_opt got k) ~default:0)))
    (Dataplane.Network.host_list net);
  got

(* ------------------------------------------------------------------ *)
(* acl-churn: Controller.Firewall under a closed loop of ACL edits *)

let acl_k = 4
let acl_entries = 24
let acl_edits = 15
let acl_probes = 16
let acl_probe_delay = 0.005  (* sim s after the edit: tables are settled *)
let acl_settle = 0.05        (* sim s each edit is given *)
let firewall_cookie = 0x0f   (* Controller.Firewall.create's default *)

(* first-match verdict of the ACL, default allow (Firewall's default) *)
let acl_admits entries (h : Packet.Headers.t) =
  let ok opt v = match opt with None -> true | Some x -> x = v in
  match
    List.find_opt
      (fun (e : Netkat.Builder.acl_entry) ->
        ok e.src_ip h.ip4_src && ok e.dst_ip h.ip4_dst && ok e.proto h.ip_proto
        && ok e.dst_port h.tp_dst)
      entries
  with
  | Some e -> e.allow
  | None -> true

type probe = { p_src : int; p_pkt : Dataplane.Network.pkt }

(* half the probes aim at a random ACL entry so both verdicts occur *)
let acl_probe prng ~hosts ~entries ~tag =
  let host_of_ip ip =
    List.find_opt (fun h -> Packet.Ipv4.of_host_id h = ip) (Array.to_list hosts)
  in
  let pick () = Util.Prng.pick prng hosts in
  let aim = List.nth entries (Util.Prng.int prng (List.length entries)) in
  let targeted = Util.Prng.bool prng in
  let dst =
    if targeted then Option.get (Option.bind aim.Netkat.Builder.dst_ip host_of_ip)
    else pick ()
  in
  let src =
    match (targeted, Option.bind aim.src_ip host_of_ip) with
    | true, Some s when s <> dst -> s
    | _ ->
      let rec other () = let s = pick () in if s = dst then other () else s in
      other ()
  in
  let tp_dst, proto =
    if targeted then
      ( Option.value aim.dst_port ~default:(Util.Prng.int prng 1024),
        Option.value aim.proto ~default:6 )
    else (Util.Prng.int prng 1024, if Util.Prng.bool prng then 6 else 17)
  in
  let pkt =
    Dataplane.Network.make_pkt ~size:100 ~tag ~tp_src:(30000 + (tag mod 1000))
      ~tp_dst ~src ~dst ()
  in
  { p_src = src; p_pkt = { pkt with hdr = { pkt.hdr with ip_proto = proto } } }

(* The traced run's copy of Firewall.set_entries, one layer call at a
   time.  It follows the app's default path (every switch gets a full
   replacement batch); run.py fails the traced run if its exact metrics
   drift from the untraced run's, which is how a change to that path
   shows. *)
let traced_firewall_push ctx entries =
  let topo = Controller.Api.topology ctx in
  let pol = span "netkat.build" (fun () -> Netkat.Builder.firewall topo entries) in
  let fdd = span "netkat.fdd" (fun () -> Netkat.Fdd.of_policy pol) in
  let result =
    span "netkat.delta" (fun () ->
      Netkat.Delta.compile ~switches:(Topo.Topology.switch_ids topo) None fdd)
  in
  span "controller.push" (fun () ->
    List.iter
      (fun (switch_id, (change : Netkat.Delta.change)) ->
        match change with
        | Unchanged -> ()
        | Changed { rules; _ } ->
          Controller.Api.install_rules ctx ~switch_id ~cookie:firewall_cookie
            ~replace:true
            (List.map
               (fun (r : Netkat.Local.rule) -> (r.priority, r.pattern, r.actions))
               rules))
      result.changes)

(* [ctx] with every message it sends captured for the side measurements;
   [timed] also puts a span around each send *)
let capturing_ctx ~timed side (ctx : Controller.Api.ctx) =
  let around f = if timed then span "controller.push" f else f () in
  { ctx with
    send =
      (fun ~switch_id msg ->
        around (fun () ->
          capture side [ msg ];
          ctx.send ~switch_id msg));
    send_batch =
      (fun ~switch_id msgs ->
        around (fun () ->
          capture side msgs;
          ctx.send_batch ~switch_id msgs)) }

let local_rules table =
  List.map
    (fun (r : Flow.Table.rule) ->
      { Netkat.Local.priority = r.priority; pattern = r.pattern;
        actions = r.actions })
    (Flow.Table.rules table)

let acl_churn ep side ~seed =
  let prng = Util.Prng.create seed in
  let topo, _ = Topo.Gen.fat_tree ~k:acl_k () in
  let hosts = Array.of_list (Topo.Topology.host_ids topo) in
  let switches = Topo.Topology.switch_ids topo in
  let entries0 =
    Netkat.Builder.random_acl prng ~n:acl_entries ~hosts:(Array.length hosts)
  in
  (* the edit stream: edit i replaces entry [slot] with a fresh entry *)
  let edits =
    List.init acl_edits (fun _ ->
      let slot = Util.Prng.int prng acl_entries in
      (slot, List.hd (Netkat.Builder.random_acl prng ~n:1 ~hosts:(Array.length hosts))))
  in
  let z = Zen.create topo in
  let net = Zen.network z in
  let got = hook_receive net (fun pkt -> pkt.tag) in
  let push, runtime =
    if !tracing then begin
      let installed = ref false in
      let app =
        { (Controller.Api.default_app "firewall") with
          switch_up =
            (fun ctx ~switch_id:_ ~ports:_ ->
              if not !installed then begin
                installed := true;
                traced_firewall_push ctx entries0
              end) }
      in
      let rt =
        Zen.with_controller ~resilience:Controller.Runtime.default_resilience z
          [ app ]
      in
      let ctx = capturing_ctx ~timed:false side (Controller.Runtime.ctx rt) in
      ((fun entries -> traced_firewall_push ctx entries), rt)
    end
    else begin
      let fw = Controller.Firewall.create entries0 in
      let rt =
        Zen.with_controller ~resilience:Controller.Runtime.default_resilience z
          [ Controller.Firewall.app fw ]
      in
      let ctx = Controller.Runtime.ctx rt in
      ((fun entries -> Controller.Firewall.set_entries fw ctx entries), rt)
    end
  in
  let meter = { bytes = 0; msgs = 0; ops = 0 } in
  let attempted = ref 0 and useful = ref 0 and rules_changed = ref 0 in
  let entries = ref entries0 in
  let sim = Dataplane.Network.sim net in
  let switch_table id = (Dataplane.Network.switch net id).table in
  ep.setup_end <- wall ();
  List.iteri
    (fun i (slot, entry) ->
      entries := List.mapi (fun j e -> if j = slot then entry else e) !entries;
      let current = !entries in
      let probes =
        List.init acl_probes (fun j ->
          acl_probe prng ~hosts ~entries:current ~tag:(1 + (i * acl_probes) + j))
      in
      let before =
        List.map
          (fun id -> (id, Flow.Table.generation (switch_table id), local_rules (switch_table id)))
          switches
      in
      timed_op ep (fun () ->
        metered meter net (fun () ->
          push current;
          List.iter
            (fun p ->
              Dataplane.Sim.schedule sim ~delay:acl_probe_delay (fun () ->
                Dataplane.Network.send_from net ~host:p.p_src p.p_pkt))
            probes;
          span "dataplane.run" (fun () ->
            ignore
              (Dataplane.Network.run
                 ~until:(Dataplane.Network.now net +. acl_settle) net ()))));
      (* oracles, outside the timed window *)
      let scratch =
        Netkat.Local.compile_all ~switches (Netkat.Builder.firewall topo current)
      in
      let tables_ok =
        List.for_all
          (fun id ->
            let installed = table_keys (switch_table id) in
            let intended =
              List.sort compare
                (List.map rule_key (Controller.Runtime.intended_rules runtime ~switch_id:id))
            in
            let fresh =
              List.sort compare
                (List.map
                   (fun (r : Netkat.Local.rule) -> (r.priority, r.pattern, r.actions))
                   (List.assoc id scratch))
            in
            installed = intended && installed = fresh)
          switches
      in
      let probes_ok =
        List.for_all
          (fun p ->
            let admitted = acl_admits current p.p_pkt.hdr in
            let arrived = Hashtbl.mem got p.p_pkt.tag in
            if admitted then ep.expected <- ep.expected + 1;
            if arrived then ep.delivered <- ep.delivered + 1;
            if admitted && arrived then
              ep.delivered_expected <- ep.delivered_expected + 1;
            admitted = arrived)
          probes
      in
      check ep (tables_ok && probes_ok)
        (Printf.sprintf "edit %d: tables %b, probes %b" i tables_ok probes_ok);
      List.iter
        (fun (id, gen, old_rules) ->
          let table = switch_table id in
          if Flow.Table.generation table <> gen then incr attempted;
          let adds, deletes = Netkat.Delta.diff_rules old_rules (local_rules table) in
          let n = List.length adds + List.length deletes in
          if n > 0 then incr useful;
          rules_changed := !rules_changed + n)
        before;
      if !tracing then
        List.iter
          (fun p ->
            match located topo net p.p_pkt.hdr ~src:p.p_src with
            | Some l -> side.lookups <- l :: side.lookups
            | None -> ())
          probes)
    edits;
  let fdd = Netkat.Fdd.of_policy (Netkat.Builder.firewall topo !entries) in
  ep.star <-
    [ ("netkat.fdd_nodes", float_of_int (Netkat.Fdd.node_count fdd));
      ("netkat.switches_changed_ratio", ratio !useful !attempted);
      ("netkat.rules_changed", float_of_int !rules_changed /. float_of_int acl_edits) ]
    @ runtime_star [ runtime ] @ replica_star () @ ctl_star meter
    @ dataplane_star net;
  ep.digest <- tables_digest net;
  if !tracing then begin
    side_codec side;
    side_lookup side ~fresh_ports:false ~rounds:50
  end

(* ------------------------------------------------------------------ *)
(* fabric-forward: compiled routing, long-lived flows, no controller *)

let ff_k = 6
let ff_flows = 500
let ff_rate = 40.0
let ff_pkt_size = 200
let ff_stop = 5.0     (* sim s: last packet *)
let ff_end = 5.1      (* sim s: every packet has landed *)
let ff_slice = 0.05

(* The traced run's copy of Zen.install_policy on a fresh network: the
   first install loads every switch's table in full. *)
let traced_install side net topo =
  let pol = span "netkat.build" (fun () -> Netkat.Builder.routing_policy topo) in
  let fdd = span "netkat.fdd" (fun () -> Netkat.Fdd.of_policy pol) in
  let result =
    span "netkat.delta" (fun () ->
      Netkat.Delta.compile ~switches:(Topo.Topology.switch_ids topo) None fdd)
  in
  let t0 = wall () in
  let rules_added = ref 0 in
  List.iter
    (fun (switch_id, (change : Netkat.Delta.change)) ->
      match change with
      | Unchanged -> ()
      | Changed { rules; _ } ->
        let table = (Dataplane.Network.switch net switch_id).table in
        Flow.Table.clear table;
        List.iter
          (fun (r : Netkat.Local.rule) ->
            incr rules_added;
            Flow.Table.add table
              (Flow.Table.make_rule ~priority:r.priority ~pattern:r.pattern
                 ~actions:r.actions ()))
          rules)
    result.changes;
  per_unit side "flow.apply" "flow.apply_us_per_mod" ~scale:1e6 t0 !rules_added;
  pol

let run_slices ep net ~until ~slice ~after =
  let rec go t =
    if t < until -. 1e-9 then begin
      let next = Float.min until (t +. slice) in
      timed_op ep (fun () ->
        span "dataplane.run" (fun () ->
          ignore (Dataplane.Network.run ~until:next net ())));
      after ();
      go next
    end
  in
  go (Dataplane.Network.now net)

let fabric_forward ep side ~seed =
  let prng = Util.Prng.create seed in
  let topo, _ = Topo.Gen.fat_tree ~k:ff_k () in
  let z = Zen.create topo in
  let net = Zen.network z in
  let pol =
    if !tracing then traced_install side net topo
    else begin
      let pol = Netkat.Builder.routing_policy topo in
      ignore (Zen.install_policy z pol);
      pol
    end
  in
  let specs =
    Dataplane.Traffic.random_pair_specs ~fixed_ports:true ~prng
      ~host_ids:(Array.of_list (Topo.Topology.host_ids topo))
      ~flows:ff_flows ~rate_pps:ff_rate ~pkt_size:ff_pkt_size ~stop:ff_stop ()
  in
  let sent = List.map (Dataplane.Traffic.cbr net) specs in
  let got = hook_receive net (fun pkt -> pkt.hdr.tp_src) in
  ep.setup_end <- wall ();
  run_slices ep net ~until:ff_end ~slice:ff_slice ~after:ignore;
  let total_sent = List.fold_left (fun acc s -> acc + !s) 0 sent in
  let delivered = (Dataplane.Network.stats net).delivered in
  ep.delivered <- delivered;
  ep.expected <- total_sent;
  List.iter2
    (fun (spec : Dataplane.Traffic.flow_spec) s ->
      let port = Option.get spec.tp_src in
      let n = Option.value (Hashtbl.find_opt got port) ~default:0 in
      ep.delivered_expected <- ep.delivered_expected + min n !s;
      check ep (n = !s)
        (Printf.sprintf "flow %d (h%d->h%d): sent %d, delivered %d" port
           spec.src spec.dst !s n))
    specs sent;
  ep.star <-
    [ ( "netkat.fdd_nodes",
        float_of_int (Netkat.Fdd.node_count (Netkat.Fdd.of_policy pol)) );
      ("netkat.switches_changed_ratio", 0.0);
      ("netkat.rules_changed", 0.0) ]
    @ runtime_star [] @ replica_star ()
    @ ctl_star { bytes = 0; msgs = 0; ops = 0 }
    @ dataplane_star net;
  ep.digest <- tables_digest net;
  if !tracing then begin
    side.lookups <-
      List.filter_map
        (fun (spec : Dataplane.Traffic.flow_spec) ->
          let pkt =
            Dataplane.Network.make_pkt ~tp_src:(Option.get spec.tp_src)
              ~tp_dst:spec.tp_dst ~src:spec.src ~dst:spec.dst ()
          in
          located topo net pkt.hdr ~src:spec.src)
        specs;
    side_lookup side ~fresh_ports:false ~rounds:20
  end

(* ------------------------------------------------------------------ *)
(* failover-chaos: replicated routing controller under chaos *)

let fc_k = 4
let fc_flows = 40
let fc_rate = 100.0
let fc_pkt_size = 200
let fc_crashes = 10
let fc_first_crash = 0.6
let fc_crash_period = 1.5  (* leaves nearly every failover time to complete *)
let fc_crash_len = 0.4
let fc_stop = 15.3    (* sim s: traffic stops *)
let fc_end = 15.5     (* sim s: end of the timed ops *)
let fc_settle = 10.0  (* sim s after the ops within which tables must converge *)
let fc_slice = 0.2  (* long enough that p90 falls among the failover slices *)

let wrap_app side (app : Controller.Api.app) : Controller.Api.app =
  let w = capturing_ctx ~timed:true side in
  { app with
    switch_up =
      (fun ctx ~switch_id ~ports ->
        span "controller.app" (fun () -> app.switch_up (w ctx) ~switch_id ~ports));
    switch_down =
      (fun ctx ~switch_id ->
        span "controller.app" (fun () -> app.switch_down (w ctx) ~switch_id));
    port_status =
      (fun ctx ~switch_id ~port ~up ->
        span "controller.app" (fun () ->
          app.port_status (w ctx) ~switch_id ~port ~up)) }

let failover_chaos ep side ~seed =
  let prng = Util.Prng.create seed in
  let topo, _ = Topo.Gen.fat_tree ~k:fc_k () in
  let switches = Array.of_list (Topo.Topology.switch_ids topo) in
  let fabric_links =
    List.filter
      (fun (l : Topo.Topology.link) ->
        Topo.Topology.Node.is_switch l.src && Topo.Topology.Node.is_switch l.dst)
      (Topo.Topology.links topo)
    |> Array.of_list
  in
  let fault =
    Dataplane.Fault.create ~seed ~drop:0.10 ~dup:0.02 ~jitter:0.002
      ~link_drop:0.01 ()
  in
  let z = Zen.create ~fault topo in
  let net = Zen.network z in
  let mk_apps () =
    let apps = [ Controller.Routing.app (Controller.Routing.create ()) ] in
    if !tracing then List.map (wrap_app side) apps else apps
  in
  let replica = Zen.with_replicas z mk_apps in
  let crashes =
    List.init fc_crashes (fun i ->
      Dataplane.Fault.Controller_outage
        { controller_id = i mod 2;
          at = fc_first_crash +. (float_of_int i *. fc_crash_period);
          duration = fc_crash_len })
  in
  let flap at =
    let l = Util.Prng.pick prng fabric_links in
    Dataplane.Fault.Link_flap { node = l.src; port = l.src_port; at; duration = 0.3 }
  in
  Dataplane.Network.inject net
    (crashes
     @ [ flap 3.05;
         Dataplane.Fault.Switch_outage
           { switch_id = Util.Prng.pick prng switches; at = 6.05; duration = 0.3 };
         flap 9.05 ]);
  let specs =
    Dataplane.Traffic.random_pair_specs ~prng
      ~host_ids:(Array.of_list (Topo.Topology.host_ids topo))
      ~flows:fc_flows ~rate_pps:fc_rate ~pkt_size:fc_pkt_size ~stop:fc_stop ()
  in
  let sent = List.map (Dataplane.Traffic.cbr net) specs in
  (* every runtime that led at some point, for its resilience counters *)
  let runtimes = ref [] in
  let note_runtimes () =
    for id = 0 to 1 do
      match Controller.Replica.runtime_of replica ~controller_id:id with
      | Some rt when not (List.memq rt !runtimes) -> runtimes := rt :: !runtimes
      | Some _ | None -> ()
    done
  in
  note_runtimes ();
  ep.setup_end <- wall ();
  run_slices ep net ~until:fc_end ~slice:fc_slice ~after:note_runtimes;
  let total_sent = List.fold_left (fun acc s -> acc + !s) 0 sent in
  let delivered = (Dataplane.Network.stats net).delivered in
  ep.delivered <- delivered;
  ep.expected <- total_sent;
  ep.delivered_expected <- delivered;
  (* let the run settle: retransmits under 10% loss back off to 0.5 s *)
  let rec settle () =
    let diverged = Controller.Replica.diverged replica in
    let now = Dataplane.Network.now net in
    if diverged = [] || now >= fc_end +. fc_settle then diverged
    else begin
      ignore (Dataplane.Network.run ~until:(now +. 0.25) net ());
      settle ()
    end
  in
  let diverged = settle () in
  note_runtimes ();
  check ep (diverged = [])
    (Printf.sprintf "diverged switches: %s"
       (String.concat "," (List.map string_of_int diverged)));
  ep.star <-
    [ ("netkat.fdd_nodes", 0.0); ("netkat.switches_changed_ratio", 0.0);
      ("netkat.rules_changed", 0.0) ]
    @ runtime_star (List.rev !runtimes)
    @ replica_star ~replica ()
    @ ctl_star { bytes = 0; msgs = 0; ops = 0 }
    @ dataplane_star net;
  ep.digest <-
    Digest.to_hex
      (Digest.string
         (String.concat "\n" (Dataplane.Fault.events fault) ^ tables_digest net));
  if !tracing then begin
    side_codec side;
    side.lookups <-
      List.filter_map
        (fun (spec : Dataplane.Traffic.flow_spec) ->
          let pkt =
            Dataplane.Network.make_pkt ~tp_dst:spec.tp_dst ~src:spec.src
              ~dst:spec.dst ()
          in
          located topo net pkt.hdr ~src:spec.src)
        specs;
    side_lookup side ~fresh_ports:true ~rounds:100
  end


(* ------------------------------------------------------------------ *)
(* Output *)

let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

(* names, digests and failure notes are plain ASCII *)
let json_str s = Printf.sprintf "%S" s

let json_obj kvs =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) kvs)
  ^ "}"

let json_nums kvs = json_obj (List.map (fun (k, v) -> (k, json_num v)) kvs)
let json_list f xs = "[" ^ String.concat ", " (List.map f xs) ^ "]"

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> 0.0
  in
  Fun.protect go ~finally:(fun () -> close_in ic)

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* per span name: calls, total ms, self ms (total minus child spans) *)
let span_table all =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace children s.parent
        (s.dur +. Option.value (Hashtbl.find_opt children s.parent) ~default:0.0))
    all;
  let rows = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.dur -. Option.value (Hashtbl.find_opt children s.id) ~default:0.0
      in
      let n, total, self_total =
        Option.value (Hashtbl.find_opt rows s.name) ~default:(0, 0.0, 0.0)
      in
      Hashtbl.replace rows s.name
        (n + 1, total +. (s.dur *. 1e3), self_total +. (self *. 1e3)))
    all;
  Hashtbl.fold (fun name r acc -> (name, r) :: acc) rows [] |> List.sort compare

let write_trace prefix all rows =
  let oc = open_out (prefix ^ ".trace.json") in
  output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      output_string oc
        (json_obj
           [ ("name", json_str s.name); ("cat", json_str (layer s.name));
             ("ph", json_str "X"); ("pid", "1"); ("tid", "1");
             ("ts", Printf.sprintf "%.3f" ((s.t0 -. process_start) *. 1e6));
             ("dur", Printf.sprintf "%.3f" (s.dur *. 1e6));
             ( "args",
               json_obj
                 [ ("id", string_of_int s.id);
                   ("parent", string_of_int s.parent) ] ) ]))
    (List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) all);
  output_string oc "\n]}\n";
  close_out oc;
  let oc = open_out (prefix ^ ".layers.txt") in
  Printf.fprintf oc "%-18s %7s %12s %12s\n" "span" "calls" "total_ms" "self_ms";
  List.iter
    (fun (name, (n, total, self)) ->
      Printf.fprintf oc "%-18s %7d %12.3f %12.3f\n" name n total self)
    rows;
  let by_layer = Hashtbl.create 8 in
  List.iter
    (fun (name, (_, _, self)) ->
      let l = layer name in
      Hashtbl.replace by_layer l
        (self +. Option.value (Hashtbl.find_opt by_layer l) ~default:0.0))
    rows;
  Printf.fprintf oc "\n%-18s %12s\n" "layer" "self_ms";
  Hashtbl.fold (fun l v acc -> (l, v) :: acc) by_layer []
  |> List.sort compare
  |> List.iter (fun (l, v) -> Printf.fprintf oc "%-18s %12.3f\n" l v);
  close_out oc

(* per-layer timings of a traced episode *)
let span_metrics ep rows =
  let mean name =
    match List.assoc_opt name rows with
    | Some (n, total, _) when n > 0 -> total /. float_of_int n
    | Some _ | None -> 0.0
  in
  let ops = List.filter (fun s -> s.name = "op") !spans in
  let op_ids = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace op_ids s.id ()) ops;
  let op_total = List.fold_left (fun acc s -> acc +. s.dur) 0.0 ops in
  let covered =
    List.fold_left
      (fun acc s -> if Hashtbl.mem op_ids s.parent then acc +. s.dur else acc)
      0.0 !spans
  in
  let run_s =
    match List.assoc_opt "dataplane.run" rows with
    | Some (_, total, _) -> total /. 1e3
    | None -> 0.0
  in
  let events = Option.value (List.assoc_opt "dataplane.events" ep.star) ~default:0.0 in
  [ ("netkat.build_ms", mean "netkat.build");
    ("netkat.fdd_ms", mean "netkat.fdd");
    ("netkat.delta_ms", mean "netkat.delta");
    ("controller.push_ms", mean "controller.push");
    ("dataplane.run_ms", mean "dataplane.run");
    ("dataplane.events_per_s", if run_s > 0.0 then events /. run_s else 0.0);
    ("trace.coverage", if op_total > 0.0 then covered /. op_total else 0.0) ]

let () =
  let usage () =
    prerr_endline
      "usage: zenbench.exe (acl-churn|fabric-forward|failover-chaos) SEED \
       [--trace PREFIX]";
    exit 2
  in
  let workload, seed, trace_prefix =
    match Array.to_list Sys.argv with
    | [ _; w; s ] -> (w, s, None)
    | [ _; w; s; "--trace"; p ] -> (w, s, Some p)
    | _ -> usage ()
  in
  let seed = match int_of_string_opt seed with Some s -> s | None -> usage () in
  let run =
    match workload with
    | "acl-churn" -> acl_churn
    | "fabric-forward" -> fabric_forward
    | "failover-chaos" -> failover_chaos
    | _ -> usage ()
  in
  tracing := trace_prefix <> None;
  let ep = new_episode () and side = new_side () in
  run ep side ~seed;
  let layers =
    match trace_prefix with
    | None -> []
    | Some prefix ->
      let rows = span_table !spans in
      write_trace prefix !spans rows;
      span_metrics ep rows @ side.metrics
  in
  print_endline
    (json_obj
       [ ("workload", json_str workload);
         ("seed", string_of_int seed);
         ("process_start", json_num process_start);
         ("setup_end", json_num ep.setup_end);
         ("op_ms", json_list json_num (List.rev ep.op_ms));
         ("spin_ms", json_list json_num (List.rev ep.spin_ms));
         ("delivered", string_of_int ep.delivered);
         ("expected", string_of_int ep.expected);
         ("delivered_expected", string_of_int ep.delivered_expected);
         ("checks", string_of_int ep.checks);
         ("failures", json_list json_str (List.rev ep.failures));
         ("star", json_nums ep.star);
         ("digest", json_str ep.digest);
         ("layers", json_nums layers);
         ("rss_mb", json_num (vm_hwm_mb ()));
         ("ocaml", json_str Sys.ocaml_version);
         ("pool", string_of_int (Util.Pool.default_size ())) ])
