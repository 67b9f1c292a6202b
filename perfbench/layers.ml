(* The traced run (--trace 1): per-layer metrics, measured from outside
   by timing calls into each layer's public functions, with spans kept
   in memory and written at the end as a Chrome trace plus a per-layer
   self-time table.

   One pass of the layer tour covers every layer, so every traced run
   reports every per-layer metric:
   - the pipeline (minic, core analysis, sparc, verify, core.create,
     telemetry), the interpreter (machine) and the check code (core) on
     the workload's own programs;
   - replay on replay-query's three recordings (the fleet's session
     programs for service-fleet);
   - serve on the fleet's session programs: in-process engine, then
     the real dbreakd over the wire.
   Passes alternate untraced and traced; the tracing overhead is the
   ratio of their median pass times. *)

open Dbp

type tracer = Trace.t option

let span (tr : tracer) name f = match tr with Some t -> Trace.with_span t name f | None -> f ()

(* One pass's measurements: sums keyed by name, and per-operation
   latency samples (ms) keyed by verb. *)
type acc = { sums : (string, float) Hashtbl.t; samples : (string, float) Hashtbl.t }

let add a k v =
  Hashtbl.replace a.sums k (v +. Option.value ~default:0.0 (Hashtbl.find_opt a.sums k))

let get a k = Option.value ~default:0.0 (Hashtbl.find_opt a.sums k)
let sample a k ms = Hashtbl.add a.samples k ms

let timed a tr key f =
  let x, t = Util.time (fun () -> span tr key f) in
  add a (key ^ "_s") t;
  x

(* --- pipeline, machine, check code --------------------------------------- *)

let pipeline a tr l (w : Workloads.Workload.t) =
  let options = Suite.options w Instrument.O_full in
  let out = timed a tr "minic.compile" (fun () -> Minic.Compile.compile w.source) in
  let plan = timed a tr "core.instrument" (fun () -> Instrument.run options out) in
  ignore (timed a tr "sparc.assemble" (fun () -> Sparc.Assembler.assemble plan.Instrument.program));
  let s = timed a tr "core.create" (fun () -> Session.create ~options w.source) in
  let rep =
    timed a tr "verify.verify" (fun () ->
        Verify.run ~audit:(Audit.report s.Session.audit) s.Session.plan)
  in
  Util.check l (Verify.ok rep) (w.name ^ ": plan verification not clean");
  add a "verify.obligations" (float_of_int (List.length rep.Verify.v_obligations))

let machine_and_checks a tr l (w : Workloads.Workload.t) =
  let bare =
    span tr "machine" (fun () -> Suite.bare_run (Suite.bare_setup w))
  in
  add a "machine.bare_s" bare.run_s;
  add a "machine.bare_words" bare.words;
  add a "machine.instrs" (float_of_int bare.stats.instrs);
  add a "machine.cycles" (float_of_int bare.stats.cycles);
  add a "machine.stores" (float_of_int bare.stats.stores);
  List.iter
    (fun (label, opt) ->
      let s = Suite.monitored_setup w opt in
      let o = span tr "core.checks" (fun () -> Suite.monitored_run s) in
      Suite.check_run l w label ~bare o;
      let tel = s.Session.telemetry in
      add a "core.mon_s" o.run_s;
      add a "core.mon_instrs" (float_of_int o.stats.instrs);
      add a "core.check_execs" (float_of_int (Telemetry.current tel Telemetry.Check_execs));
      add a "core.dcache_misses" (float_of_int o.stats.cache_misses);
      add a "core.dcache_accesses" (float_of_int (o.stats.cache_hits + o.stats.cache_misses));
      if opt = Instrument.O_full then begin
        add a "core.site_execs" (float_of_int (Session.total_site_executions s));
        add a "core.eliminated_execs" (float_of_int (Session.eliminated_site_executions s))
      end;
      let _, t = Util.time (fun () ->
          span tr "telemetry.report" (fun () -> ignore (Export.to_json_string (Session.report s))))
      in
      add a "telemetry.report_s" t)
    Suite.opts

(* --- replay ----------------------------------------------------------------- *)

let replay_tour a tr l st programs =
  List.iter
    (fun ((w : Workloads.Workload.t), watched) ->
      let r = span tr "replay.record" (fun () -> Replayq.record l st (w, watched)) in
      let tel = r.s.Session.telemetry in
      add a "replay.record_s" r.rec_s;
      add a "replay.checkpoints" (float_of_int (Telemetry.current tel Telemetry.Checkpoints_taken));
      add a "replay.checkpoint_bytes" (float_of_int (Telemetry.current tel Telemetry.Checkpoint_bytes));
      add a "core.user_hits" (float_of_int (Telemetry.current tel Telemetry.User_hits));
      add a "core.trap_dispatches" (float_of_int (Machine.Cpu.trap_count r.s.Session.cpu));
      (* The same run, watched, without the checkpoint journal. *)
      let s = Session.create ~options:(Suite.options r.w Instrument.O_full) r.w.source in
      let dbg = Debugger.create s in
      ignore (Debugger.watch dbg watched);
      let _, t = Util.time (fun () -> span tr "replay.unrecorded" (fun () -> Session.run ~fuel:Suite.fuel s)) in
      add a "replay.unrecorded_s" t;
      let verb v f =
        let before k = Telemetry.current tel k in
        let i0 = before Telemetry.Replayed_instrs and r0 = before Telemetry.Restores in
        let _, t = Util.time (fun () -> span tr ("replay." ^ v) f) in
        add a ("replay." ^ v ^ ".s") t;
        add a ("replay." ^ v ^ ".n") 1.0;
        sample a ("replay." ^ v) (t *. 1000.0);
        add a ("replay." ^ v ^ ".instrs") (float_of_int (before Telemetry.Replayed_instrs - i0));
        add a ("replay." ^ v ^ ".restores") (float_of_int (before Telemetry.Restores - r0))
      in
      let addr = Option.get (Session.resolve_addr r.s watched) in
      verb "last_write" (fun () -> ignore (Session.last_write r.s ~addr));
      verb "history" (fun () -> ignore (Session.write_history r.s ~lo:addr ~hi:(addr + 4)));
      for _ = 1 to 5 do
        let insn = 1 + Random.State.int st r.end_insn in
        verb "travel" (fun () -> ignore (Session.time_travel r.s ~insn))
      done)
    programs

(* --- serve --------------------------------------------------------------------- *)

(* In-process engine, one shard: each command is submitted and drained
   on its own, so its time is pure execution (no front-end wait). *)
let serve_exec a tr l st (oracles : Fleet.oracle array) =
  let eng = Daemon.create ~shards:1 () in
  Fun.protect ~finally:(fun () -> Daemon.shutdown eng) @@ fun () ->
  let c = Daemon.client eng in
  let fr = Fleet.framer () in
  Array.iteri
    (fun i (o : Fleet.oracle) ->
      let sid = Printf.sprintf "x%d" i in
      let travel = o.travels.(Random.State.int st Fleet.travel_points) in
      let last_seq = ref 0 in
      let transcript = ref [] in
      List.iter
        (fun (step : Fleet.step) ->
          let line = Proto.encode_command step.cmd in
          let lines, t =
            Util.time (fun () ->
                span tr ("serve.exec." ^ step.verb) (fun () ->
                    Daemon.submit eng c line;
                    Daemon.drain eng;
                    Daemon.output c))
          in
          sample a ("serve.exec." ^ step.verb) (t *. 1000.0);
          transcript := !transcript @ (line :: lines);
          let resp = List.filter_map (Fleet.feed fr) lines in
          ignore
            (Util.op l (sid ^ " in-process " ^ step.verb) (fun () ->
                 match resp with
                 | [ r ] -> Fleet.check_response l ~sid ~last_seq step r
                 | _ -> Util.check l false (sid ^ " " ^ step.verb ^ ": not one response"))))
        (Fleet.script ~sid ~travel o);
      (* Codec: re-encode and decode the session's whole transcript. *)
      let reps = 20 in
      let _, t =
        Util.time (fun () ->
            span tr "serve.codec" (fun () ->
                for _ = 1 to reps do
                  List.iter
                    (fun line ->
                      match Proto.decode_command line with
                      | Ok cmd -> ignore (Proto.encode_command cmd)
                      | Error _ -> (
                        match Proto.decode_reply line with
                        | Ok r -> ignore (Proto.encode_reply r)
                        | Error e -> failwith e))
                    !transcript
                done))
      in
      add a "serve.codec_s" (t /. float_of_int reps);
      add a "serve.codec_n" 1.0)
    oracles

(* The real daemon: a short closed loop on both connections. *)
let serve_wire a tr l st exe oracles =
  let live = Fleet.setup l exe in
  Fun.protect ~finally:(fun () -> Fleet.teardown live) @@ fun () ->
  let clients = Fleet.clients (snd live) in
  let samples, completed, _, _ =
    span tr "serve.wire" (fun () ->
        Fleet.closed_loop l st oracles clients ~deadline:(Util.now () +. 1.0))
  in
  List.iter
    (fun (s : Fleet.sample) -> sample a ("serve.wire." ^ s.s_verb) s.s_ms)
    samples;
  add a "serve.sessions" (float_of_int completed);
  add a "serve.frames" (float_of_int (List.length samples));
  add a "serve.reply_frames"
    (float_of_int (List.fold_left (fun n cl -> n + cl.Fleet.frames_seen) 0 clients));
  add a "serve.hit_frames"
    (float_of_int (List.fold_left (fun n cl -> n + cl.Fleet.hits_seen) 0 clients))

(* --- the tour ---------------------------------------------------------------------- *)

let tour ~workload ~exe ~seed tr l =
  let a = { sums = Hashtbl.create 64; samples = Hashtbl.create 64 } in
  let st = Util.rng seed in
  let oracles =
    Array.of_list (List.init Fleet.variants (fun _ -> Fleet.oracle st (Fleet.variant st)))
  in
  let replay_programs = List.map (fun (n, v) -> (Replayq.workload n, v)) Replayq.programs in
  let fleet_programs =
    Array.to_list (Array.map (fun (o : Fleet.oracle) -> (Fleet.workload_of o.v, o.v.var)) oracles)
  in
  let programs, replay_programs =
    match workload with
    | "suite-miss" -> (Workloads.Spec.all, replay_programs)
    | "replay-query" -> (List.map fst replay_programs, replay_programs)
    | _ -> (List.map fst fleet_programs, fleet_programs)
  in
  let _, pass_s =
    Util.time (fun () ->
        span tr "pass" (fun () ->
            List.iter
              (fun w ->
                span tr w.Workloads.Workload.name (fun () ->
                    pipeline a tr l w;
                    machine_and_checks a tr l w))
              programs;
            replay_tour a tr l st replay_programs;
            serve_exec a tr l st oracles;
            serve_wire a tr l st exe oracles))
  in
  (a, pass_s)

(* --- per-layer self time ---------------------------------------------------------- *)

let layers = [ "minic"; "core"; "sparc"; "verify"; "machine"; "replay"; "serve"; "telemetry" ]

(* A span's layer: its name up to the first dot, when that names a
   layer; the tour's own grouping spans (pass, programs) are the
   harness. *)
let layer_of name =
  match String.index_opt name '.' with
  | Some i when List.mem (String.sub name 0 i) layers -> String.sub name 0 i
  | _ -> if List.mem name layers then name else "harness"

(* Self time: a span's duration minus that of its direct children. *)
let self_times spans =
  let tbl = Hashtbl.create 16 in
  let arr = Array.of_list spans in
  Array.iter
    (fun (p : Trace.span) ->
      let children =
        Array.fold_left
          (fun acc (c : Trace.span) ->
            if c.sp_depth = p.sp_depth + 1 && c.sp_start >= p.sp_start
               && c.sp_start +. c.sp_dur <= p.sp_start +. p.sp_dur +. 1e-9
            then acc +. c.sp_dur
            else acc)
          0.0 arr
      in
      let k = layer_of p.sp_name in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
      Hashtbl.replace tbl k (prev +. Float.max 0.0 (p.sp_dur -. children)))
    arr;
  List.sort (fun (_, a) (_, b) -> compare b a) (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let verbs_replay = [ "last_write"; "history"; "travel" ]

let run ~workload ~exe ~seed ~seconds ~out (l : Util.ledger) (m : Util.metrics) =
  let tracer = Trace.create ~clock:Util.now () in
  (* Alternate untraced and traced passes; at least one pair. *)
  let plain = ref [] and traced = ref [] in
  let t_end = Util.now () +. seconds in
  while !traced = [] || Util.now () < t_end do
    plain := snd (tour ~workload ~exe ~seed None l) :: !plain;
    traced := tour ~workload ~exe ~seed (Some tracer) l :: !traced
  done;
  let passes = List.map fst !traced in
  let med f = Util.median (List.map f passes) in
  let ms k = med (fun a -> get a (k ^ "_s") *. 1000.0) in
  let ratio num den = med (fun a -> get a num /. get a den) in
  let samples k = List.concat_map (fun a -> Hashtbl.find_all a.samples k) passes in
  let metric = Util.metric m in
  metric "minic.compile_ms" (ms "minic.compile") "ms";
  metric "core.instrument_ms" (ms "core.instrument") "ms";
  metric "sparc.assemble_ms" (ms "sparc.assemble") "ms";
  metric "core.create_ms" (ms "core.create") "ms";
  metric "verify.verify_ms" (ms "verify.verify") "ms";
  metric "verify.obligations" (med (fun a -> get a "verify.obligations")) "count";
  metric "telemetry.report_ms" (ms "telemetry.report") "ms";
  metric "machine.bare_mips" (med (fun a -> get a "machine.instrs" /. get a "machine.bare_s" /. 1e6))
    "Minstr/s";
  metric "machine.bare_alloc_words_per_kinstr"
    (med (fun a -> get a "machine.bare_words" /. get a "machine.instrs" *. 1000.0)) "words";
  metric "machine.instrs" (med (fun a -> get a "machine.instrs")) "count";
  metric "machine.cycles" (med (fun a -> get a "machine.cycles")) "count";
  metric "machine.stores" (med (fun a -> get a "machine.stores")) "count";
  metric "core.check_execs_per_kinstr"
    (med (fun a -> get a "core.check_execs" /. get a "core.mon_instrs" *. 1000.0)) "count";
  metric "core.eliminated_exec_share" (ratio "core.eliminated_execs" "core.site_execs") "ratio";
  metric "core.dcache_miss_ratio" (ratio "core.dcache_misses" "core.dcache_accesses") "ratio";
  metric "core.host_slowdown"
    (med (fun a -> get a "core.mon_s" /. (2.0 *. get a "machine.bare_s"))) "x";
  metric "core.user_hits" (med (fun a -> get a "core.user_hits")) "count";
  metric "core.trap_dispatches" (med (fun a -> get a "core.trap_dispatches")) "count";
  metric "replay.record_overhead" (ratio "replay.record_s" "replay.unrecorded_s") "x";
  metric "replay.checkpoints" (med (fun a -> get a "replay.checkpoints")) "count";
  metric "replay.checkpoint_bytes" (med (fun a -> get a "replay.checkpoint_bytes")) "bytes";
  List.iter
    (fun v ->
      let k = "replay." ^ v in
      metric ("replay.replayed_instrs_per_query." ^ v) (ratio (k ^ ".instrs") (k ^ ".n")) "count";
      metric ("replay.restores_per_query." ^ v) (ratio (k ^ ".restores") (k ^ ".n")) "count";
      metric ("replay.reexec_mips." ^ v)
        (med (fun a -> get a (k ^ ".instrs") /. get a (k ^ ".s") /. 1e6)) "Minstr/s")
    verbs_replay;
  List.iter
    (fun v ->
      let exec = Util.median (samples ("serve.exec." ^ v)) in
      let wire = Util.median (samples ("serve.wire." ^ v)) in
      metric ("serve.exec_ms." ^ v) exec "ms";
      metric ("serve.wire_wait_ms." ^ v) (wire -. exec) "ms")
    Fleet.verbs;
  metric "serve.codec_us" (med (fun a -> get a "serve.codec_s" /. get a "serve.codec_n" *. 1e6)) "us";
  metric "serve.frames_per_session" (ratio "serve.reply_frames" "serve.sessions") "count";
  metric "serve.hits_streamed" (ratio "serve.hit_frames" "serve.sessions") "count";
  let untraced = Util.median !plain and with_trace = Util.median (List.map snd !traced) in
  metric "trace.overhead_pct" (100.0 *. (with_trace /. untraced -. 1.0)) "%";
  (* Chrome trace and per-layer self-time table. *)
  let spans = Trace.spans tracer in
  let selfs = self_times spans in
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 selfs in
  let table = Buffer.create 512 in
  Printf.bprintf table "per-layer self time over %d traced passes (%d spans):\n"
    (List.length passes) (List.length spans);
  List.iter
    (fun (k, v) -> Printf.bprintf table "  %-10s %10.3f s  %5.1f%%\n" k v (100.0 *. v /. total))
    selfs;
  Printf.bprintf table "tracing overhead: traced pass %.3f s vs untraced %.3f s (medians of %d)\n"
    with_trace untraced (List.length passes);
  print_string (Buffer.contents table);
  (try Unix.mkdir out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let base = Filename.concat out (Printf.sprintf "%s-seed%d" workload seed) in
  let write path s =
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc;
    Printf.printf "wrote %s\n" path
  in
  write (base ^ ".trace.json") (Trace.to_chrome_string [ tracer ]);
  write (base ^ ".layers.txt") (Buffer.contents table)
