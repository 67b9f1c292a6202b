(* The checkpoint/replay subsystem (DESIGN.md §9).

   Three layers of evidence, mirroring the acceptance criteria:

   1. Units: COW page snapshots really share unwritten pages and
      restore exactly; the journal's exponential-thinning eviction
      keeps the endpoints and its byte accounting consistent.

   2. The determinism guard: replaying every checkpoint-to-checkpoint
      window of two real workloads (matrix300 and li) reproduces a
      byte-identical architectural digest AND an identical [Cpu.stats]
      record at the target — with and without a watch armed during the
      re-execution (Price's invisibility property), and the guard
      *does* fire when a saboteur hook perturbs the replay.

   3. Retroactive queries: [last_write]/[write_history] answers are
      checked against ground truth from a full-trace run — a second,
      identically-instrumented session whose store hook records every
      store to the target word as it happens. *)

open Dbp

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- units: COW memory snapshots --------------------------------------------- *)

let test_memory_cow_sharing () =
  let open Machine in
  let mem = Memory.create () in
  Memory.write_word mem 0x1000 11;
  Memory.write_word mem 0x80_0000 22;
  let v0 = Memory.snapshot_cow mem in
  check_int "v0 pages" 2 (Memory.view_pages v0);
  (* Writing one page after the snapshot copies only that page. *)
  let copies0 = Memory.cow_copies mem in
  Memory.write_word mem 0x1004 33;
  Memory.write_word mem 0x1008 44;
  check_int "one COW copy for two writes to one page" (copies0 + 1)
    (Memory.cow_copies mem);
  let v1 = Memory.snapshot_cow mem in
  check_int "delta = 1 page" 1 (Memory.view_diff v0 v1);
  check_int "shared = 1 page" (Memory.view_pages v1 - 1) (Memory.view_diff v0 v1);
  (* The old view still reads the old contents. *)
  check_int "v0 old word" 0 (Memory.view_read_word v0 0x1004);
  check_int "v1 new word" 33 (Memory.view_read_word v1 0x1004);
  (* Restore v0: memory reads as at the first snapshot. *)
  Memory.restore_cow mem v0;
  check_int "restored word" 0 (Memory.read_word mem 0x1004);
  check_int "restored untouched page" 22 (Memory.read_word mem 0x80_0000);
  (* Writes after a restore do not bleed into retained views. *)
  Memory.write_word mem 0x1000 99;
  check_int "v0 immutable" 11 (Memory.view_read_word v0 0x1000);
  check_int "v1 immutable" 11 (Memory.view_read_word v1 0x1000)

let test_cpu_checkpoint_exact () =
  let src =
    "int g; int a[64];\n\
     int main() { int i; for (i = 0; i < 200; i = i + 1) { g = g + i; a[i % \
     64] = g; } return g % 100; }"
  in
  let linked = Minic.Compile.compile_and_link src in
  let cpu = Machine.Cpu.create linked.Minic.Compile.image in
  Machine.Cpu.install_basic_services cpu;
  (* Run halfway, checkpoint, note the digest/stats. *)
  for _ = 1 to 500 do
    Machine.Cpu.step cpu
  done;
  let cp = Machine.Cpu.checkpoint cpu in
  let mid_digest = Machine.Cpu.state_digest cpu in
  let mid_stats = Machine.Cpu.stats cpu in
  (* Run to completion, then roll back: everything must be bit-exact,
     including the cache-model tags and hit/miss counters inside
     [Cpu.stats]. *)
  let code1 = Machine.Cpu.run cpu in
  let end_stats = Machine.Cpu.stats cpu in
  Machine.Cpu.rollback cpu cp;
  check_string "digest restored" mid_digest (Machine.Cpu.state_digest cpu);
  check_bool "stats restored exactly" true (Machine.Cpu.stats cpu = mid_stats);
  let code2 = Machine.Cpu.run cpu in
  check_int "same exit after rollback" code1 code2;
  check_bool "same end stats after rollback" true
    (Machine.Cpu.stats cpu = end_stats)

(* --- units: journal + eviction ------------------------------------------------ *)

let snap_cpu () =
  let linked = Minic.Compile.compile_and_link "int main() { return 7; }" in
  let cpu = Machine.Cpu.create linked.Minic.Compile.image in
  Machine.Cpu.install_basic_services cpu;
  cpu

let test_journal_basics () =
  let cpu = snap_cpu () in
  let j = Journal.create ~interval:100 () in
  check_int "interval" 100 (Journal.interval j);
  let take seq =
    let s = Snapshot.capture ~seq cpu in
    Journal.record j s;
    s
  in
  let s0 = take 0 in
  Machine.Cpu.step cpu;
  Machine.Cpu.step cpu;
  let s2 = take 1 in
  Machine.Cpu.step cpu;
  let s3 = take 2 in
  check_int "length" 3 (Journal.length j);
  check_bool "snapshots oldest-first" true
    (List.map Snapshot.insn (Journal.snapshots j)
    = [ Snapshot.insn s0; Snapshot.insn s2; Snapshot.insn s3 ]);
  check_bool "nearest 1 = s0" true
    (Journal.nearest j ~insn:1 = Some s0);
  check_bool "nearest 2 = s2" true (Journal.nearest j ~insn:2 = Some s2);
  check_bool "find exact only" true
    (Journal.find j ~insn:2 = Some s2 && Journal.find j ~insn:1 = None);
  check_bool "first snapshot full, rest deltas" true
    (Journal.captured_delta_pages j >= Snapshot.pages s0);
  Alcotest.check_raises "interval must be positive"
    (Invalid_argument "Journal.create: interval must be positive") (fun () ->
      ignore (Journal.create ~interval:0 ()))

let test_journal_eviction () =
  (* Checkpoint a real recording under a byte budget tight enough to
     force eviction; the endpoints must survive, the retained byte
     accounting must stay consistent with a recount, and the evicted
     snapshots' pages must be re-attributed to their successors. *)
  let src =
    "int a[512]; int main() { int i; int k; for (k = 0; k < 40; k = k + 1) { \
     for (i = 0; i < 512; i = i + 1) { a[i] = a[i] + k + i; } } return 9; }"
  in
  let linked = Minic.Compile.compile_and_link src in
  let cpu = Machine.Cpu.create linked.Minic.Compile.image in
  Machine.Cpu.install_basic_services cpu;
  let r = Replay.create ~checkpoint_every:2_000 cpu in
  let code = Replay.record r in
  check_int "exit" 9 code;
  let unbounded = Journal.retained_bytes (Replay.journal r) in
  (* Same program again under a quarter of the unbounded footprint. *)
  let cpu2 = Machine.Cpu.create linked.Minic.Compile.image in
  Machine.Cpu.install_basic_services cpu2;
  let budget = unbounded / 4 in
  let r2 = Replay.create ~budget_bytes:budget ~checkpoint_every:2_000 cpu2 in
  let j2 = Replay.journal r2 in
  let code2 = Replay.record r2 in
  check_int "exit under budget" 9 code2;
  check_bool "evictions happened" true (Journal.evictions j2 > 0);
  check_bool "budget respected" true (Journal.retained_bytes j2 <= budget);
  (* Endpoints retained. *)
  let snaps = Journal.snapshots j2 in
  check_int "first checkpoint retained" 0 (Snapshot.insn (List.hd snaps));
  check_int "halt checkpoint retained" (Replay.end_insn r2)
    (Snapshot.insn (List.nth snaps (List.length snaps - 1)));
  (* Byte accounting equals a from-scratch recount over the survivors. *)
  let recount, _ =
    List.fold_left
      (fun (acc, prev) s -> (acc + Snapshot.bytes ~prev s, Some s))
      (0, None) snaps
  in
  check_int "retained_bytes consistent after eviction" recount
    (Journal.retained_bytes j2);
  (* The thinned journal still answers queries correctly. *)
  let t = Replay.travel r2 ~insn:(Replay.end_insn r2 / 3) in
  check_bool "travel through thinned journal" true (t >= 0);
  check_int "landed exactly" (Replay.end_insn r2 / 3)
    (Machine.Cpu.instr_count cpu2)

(* --- determinism guard over real workloads ------------------------------------ *)

let workload name =
  match Workloads.Spec.find name with
  | Some w -> w
  | None -> Alcotest.failf "unknown workload %s" name

let record_session ?checkpoint_budget ~interval (w : Workloads.Workload.t) =
  let options =
    { Instrument.default_options with
      strategy = Strategy.Bitmap_inline_registers;
      fortran_idiom = Workloads.Workload.fortran_idiom w }
  in
  let session =
    Session.create ~options ~checkpoint_every:interval ?checkpoint_budget
      w.Workloads.Workload.source
  in
  Mrs.enable session.Session.mrs;
  let code, _ = Session.run session in
  (match w.Workloads.Workload.expected_exit with
  | Some e -> check_int (w.name ^ " exit") e code
  | None -> ());
  let r = Option.get (Session.replay session) in
  (session, r)

(* Replay every checkpoint-to-checkpoint window under the digest guard
   and compare the architectural stats at each target with the stats
   the recorder saw — once bare, and once with an (invisible) watch
   armed over the whole data space.  [Cpu.stats] equality is strictly
   stronger than the digest: it includes the cache-model tags'
   hit/miss history. *)
let check_all_windows (session : Session.t) r ~watch =
  let cpu = session.Session.cpu in
  let snaps = Array.of_list (Journal.snapshots (Replay.journal r)) in
  Alcotest.(check bool) "at least 5 checkpoints" true (Array.length snaps >= 5);
  (* Recorded truth at each checkpoint: restoring is exact (verified by
     [test_cpu_checkpoint_exact]), so collect stats via restore. *)
  let recorded_stats =
    Array.map
      (fun s ->
        Snapshot.restore cpu s;
        Machine.Cpu.stats cpu)
      snaps
  in
  for i = 1 to Array.length snaps - 1 do
    let target = Snapshot.insn snaps.(i) in
    if watch then Replay.arm r ~lo:0x40_0000 ~hi:0x50_0000;
    let replayed = Replay.replay_from r snaps.(i - 1) ~insn:target in
    if watch then Replay.disarm r;
    check_int
      (Printf.sprintf "window %d replays its full gap" i)
      (target - Snapshot.insn snaps.(i - 1))
      replayed;
    (* The guard inside [replay_from] has already compared digests;
       stats equality is the stronger architectural check. *)
    check_bool
      (Printf.sprintf "stats identical at checkpoint %d (watch=%b)" i watch)
      true
      (Machine.Cpu.stats cpu = recorded_stats.(i))
  done

let test_determinism_matrix300 () =
  let session, r = record_session ~interval:25_000 (workload "030.matrix300") in
  check_all_windows session r ~watch:false;
  check_all_windows session r ~watch:true

let test_determinism_li () =
  let session, r = record_session ~interval:50_000 (workload "022.li") in
  check_all_windows session r ~watch:false;
  check_all_windows session r ~watch:true

let test_guard_fires_on_divergence () =
  (* A saboteur replay hook perturbs simulated memory — and runs in the
     replay epoch only: the digest at the target checkpoint can no
     longer match. *)
  let session, r = record_session ~interval:10_000 (workload "030.matrix300") in
  let cpu = session.Session.cpu in
  let sabotage = ref false in
  Machine.Cpu.set_replay_hook cpu (fun cpu ~addr:_ ~width:_ ->
      check_bool "saboteur runs only while replaying" true
        (Machine.Cpu.replaying cpu);
      if !sabotage then
        Machine.Memory.write_word (Machine.Cpu.mem cpu) 0xF0_0000 0xDEAD);
  let snaps = Array.of_list (Journal.snapshots (Replay.journal r)) in
  sabotage := true;
  (match Replay.replay_from r snaps.(0) ~insn:(Snapshot.insn snaps.(1)) with
  | _ -> Alcotest.fail "guard did not fire on a perturbed replay"
  | exception Replay.Determinism_violation { insn; expected; actual } ->
    check_int "violation at the window's checkpoint" (Snapshot.insn snaps.(1))
      insn;
    check_bool "digests differ" true (expected <> actual));
  sabotage := false;
  (* ...and with the saboteur off the same window replays clean. *)
  ignore (Replay.replay_from r snaps.(0) ~insn:(Snapshot.insn snaps.(1)))

(* --- retroactive queries vs full-trace ground truth --------------------------- *)

type gt_hit = { g_insn : int; g_pc : int; g_old : int; g_new : int }

(* Ground truth: run the identical instrumented program in a second
   session whose store hook records every store overlapping the target
   word as it happens — the full-trace answer replay must reproduce. *)
let ground_truth_writes (w : Workloads.Workload.t) ~var =
  let options =
    { Instrument.default_options with
      strategy = Strategy.Bitmap_inline_registers;
      fortran_idiom = Workloads.Workload.fortran_idiom w }
  in
  let session = Session.create ~options w.Workloads.Workload.source in
  Mrs.enable session.Session.mrs;
  let addr =
    match Session.resolve_addr session var with
    | Some a -> a
    | None -> Alcotest.failf "no global %s in %s" var w.name
  in
  let word = addr land lnot 3 in
  let cpu = session.Session.cpu in
  let shadow = ref (Machine.Memory.read_word (Machine.Cpu.mem cpu) word) in
  let hits = ref [] in
  Machine.Cpu.set_store_hook cpu (fun cpu ~addr:a ~width ->
      let last = a + Sparc.Insn.width_bytes width in
      if word + 4 > a land lnot 3 && word < last then begin
        let nv = Machine.Memory.read_word (Machine.Cpu.mem cpu) word in
        hits :=
          {
            g_insn = Machine.Cpu.instr_count cpu;
            g_pc = Machine.Cpu.pc cpu;
            g_old = !shadow;
            g_new = nv;
          }
          :: !hits;
        shadow := nv
      end);
  ignore (Session.run session);
  (addr, List.rev !hits)

let check_queries_against_ground_truth ~interval (wname, var) =
  let w = workload wname in
  let truth_addr, truth = ground_truth_writes w ~var in
  check_bool (var ^ " is written at least once") true (truth <> []);
  let session, r = record_session ~interval w in
  let addr =
    match Session.resolve_addr session var with
    | Some a -> a
    | None -> Alcotest.failf "no global %s" var
  in
  check_int "same address in both sessions" truth_addr addr;
  (* last_write: the exact (insn, pc, old, new) of the final store. *)
  (match Session.last_write session ~addr with
  | None -> Alcotest.failf "last_write found nothing for %s" var
  | Some { Session.wr_hit = h; wr_write_type } ->
    let final = List.nth truth (List.length truth - 1) in
    check_int "final write insn" final.g_insn h.Replay.h_insn;
    check_int "final write pc" final.g_pc h.Replay.h_pc;
    check_int "final write old value" final.g_old h.Replay.h_old;
    check_int "final write new value" final.g_new h.Replay.h_new;
    check_bool "write site classified" true (wr_write_type <> None));
  (* write_history: every store to the word, in execution order. *)
  let word = addr land lnot 3 in
  let history = Session.write_history session ~lo:word ~hi:(word + 4) in
  check_int (var ^ " history length") (List.length truth) (List.length history);
  List.iter2
    (fun g { Session.wr_hit = h; _ } ->
      check_int "history insn" g.g_insn h.Replay.h_insn;
      check_int "history pc" g.g_pc h.Replay.h_pc;
      check_int "history old" g.g_old h.Replay.h_old;
      check_int "history new" g.g_new h.Replay.h_new)
    truth history;
  (* Queries end back at the recorded end state. *)
  check_int "machine at recorded end" (Replay.end_insn r)
    (Machine.Cpu.instr_count session.Session.cpu)

let test_last_write_matrix300 () =
  check_queries_against_ground_truth ~interval:25_000 ("030.matrix300", "c")

let test_last_write_li () =
  check_queries_against_ground_truth ~interval:50_000 ("022.li", "mark_count")

let test_queries_survive_eviction () =
  (* With a byte budget forcing eviction, windows get wider but the
     answers must not change. *)
  let w = workload "030.matrix300" in
  let _, truth = ground_truth_writes w ~var:"c" in
  let session, r =
    record_session ~interval:5_000 ~checkpoint_budget:200_000 w
  in
  check_bool "eviction happened" true
    (Journal.evictions (Replay.journal r) > 0);
  let addr = Option.get (Session.resolve_addr session "c") in
  match Session.last_write session ~addr with
  | None -> Alcotest.fail "last_write found nothing after eviction"
  | Some { Session.wr_hit = h; _ } ->
    let final = List.nth truth (List.length truth - 1) in
    check_int "insn unchanged by eviction" final.g_insn h.Replay.h_insn;
    check_int "pc unchanged by eviction" final.g_pc h.Replay.h_pc;
    check_int "value unchanged by eviction" final.g_new h.Replay.h_new

(* --- session plumbing --------------------------------------------------------- *)

let test_session_without_journal () =
  let session = Session.create "int main() { return 3; }" in
  let _ = Session.run session in
  check_bool "no replay engine" true (Session.replay session = None);
  Alcotest.check_raises "last_write refused"
    (Invalid_argument
       "Session.last_write: session was created without ?checkpoint_every — \
        no journal") (fun () ->
      ignore (Session.last_write session ~addr:0x40_0000))

let test_resolve_addr_forms () =
  let session = Session.create "int g; int main() { g = 5; return g; }" in
  let g = Option.get (Session.resolve_addr session "g") in
  check_bool "global resolves to data space" true (g >= 0x40_0000);
  check_bool "hex form" true
    (Session.resolve_addr session (Printf.sprintf "0x%x" g) = Some g);
  check_bool "decimal form" true
    (Session.resolve_addr session (string_of_int g) = Some g);
  check_bool "unknown name" true (Session.resolve_addr session "zzz" = None)

let test_replay_observability () =
  (* Checkpoint counters land in the session registry; replay lifecycle
     events land in the audit journal and survive the JSON round trip
     (dbp-audit/2). *)
  let telemetry = Telemetry.create () in
  let audit = Audit.create () in
  let options =
    { Instrument.default_options with
      strategy = Strategy.Bitmap_inline_registers }
  in
  let session =
    Session.create ~options ~telemetry ~audit ~checkpoint_every:200
      "int g; int main() { int i; for (i = 0; i < 500; i = i + 1) { g = g + \
       i; } return g % 256; }"
  in
  Mrs.enable session.Session.mrs;
  let _ = Session.run session in
  let r = Option.get (Session.replay session) in
  let taken = Telemetry.get telemetry Telemetry.Checkpoints_taken in
  check_int "checkpoints counted = journal length"
    (Journal.length (Replay.journal r))
    taken;
  check_bool "pages accounted" true
    (Telemetry.get telemetry Telemetry.Checkpoint_bytes > 0);
  let g = Option.get (Session.resolve_addr session "g") in
  (match Session.last_write session ~addr:g with
  | Some { Session.wr_hit = h; _ } -> check_bool "hit found" true (h.Replay.h_new > 0)
  | None -> Alcotest.fail "no hit");
  check_bool "restores counted" true (Telemetry.get telemetry Telemetry.Restores > 0);
  check_int "replayed instrs counter tracks the engine"
    (Replay.replayed_insns r)
    (Telemetry.get telemetry Telemetry.Replayed_instrs);
  (* Audit: checkpoint_taken events recorded and round-trippable. *)
  let rep = Audit.report audit in
  let count k =
    List.length
      (List.filter (fun (e : Audit.replay_event) -> e.rp_kind = k) rep.Audit.a_replay)
  in
  check_int "one checkpoint_taken event per checkpoint" taken
    (count Audit.Checkpoint_taken);
  check_bool "restore events present" true (count Audit.State_restored > 0);
  check_bool "replay_finished events present" true
    (count Audit.Replay_finished > 0);
  let json = Audit.to_json_string rep in
  let rep2 = Audit.of_json_string json in
  check_int "replay events survive the JSON round trip"
    (List.length rep.Audit.a_replay)
    (List.length rep2.Audit.a_replay)

(* The live report describes the recorded run, not wherever a travel
   left the machine: after travelling to mid-run, stats and report equal
   the query-free session's, replay cost ([restores]/[replayed_instrs])
   aside. *)
let test_report_after_travel_is_live () =
  let src =
    "int counter; int bump() { counter = counter + 1; return counter; } \
     int main() { int i; for (i = 0; i < 200; i = i + 1) { bump(); } \
     return counter; }"
  in
  let live_view ~travel =
    let session = Session.create ~checkpoint_every:500 src in
    ignore (Debugger.watch (Debugger.create session) "counter");
    ignore (Session.run session);
    let end_insn = (Session.stats session).Machine.Cpu.instrs in
    if travel then begin
      ignore (Session.time_travel session ~insn:(end_insn / 2));
      check_int "the machine travelled" (end_insn / 2)
        (Machine.Cpu.instr_count session.Session.cpu)
    end;
    let rep = Session.report session in
    let counters =
      List.filter
        (fun (name, _) -> name <> "restores" && name <> "replayed_instrs")
        rep.Telemetry.r_counters
    in
    ( Session.stats session,
      Export.to_json_string { rep with Telemetry.r_counters = counters },
      List.assoc "store_execs" counters )
  in
  let stats0, rep0, stores0 = live_view ~travel:false in
  let stats1, rep1, stores1 = live_view ~travel:true in
  check_bool "stats are the run's" true (stats0 = stats1);
  check_int "store_execs is the run's" stats0.Machine.Cpu.stores stores1;
  check_int "store_execs unchanged" stores0 stores1;
  Alcotest.(check string) "report equals the query-free report" rep0 rep1

let suites =
  [
    ( "replay.snapshot",
      [
        Alcotest.test_case "COW sharing + exact restore" `Quick
          test_memory_cow_sharing;
        Alcotest.test_case "cpu checkpoint is bit-exact" `Quick
          test_cpu_checkpoint_exact;
      ] );
    ( "replay.journal",
      [
        Alcotest.test_case "record/nearest/find" `Quick test_journal_basics;
        Alcotest.test_case "budgeted eviction" `Quick test_journal_eviction;
      ] );
    ( "replay.determinism",
      [
        Alcotest.test_case "matrix300: every window, +/- watch" `Slow
          test_determinism_matrix300;
        Alcotest.test_case "li: every window, +/- watch" `Slow
          test_determinism_li;
        Alcotest.test_case "guard fires on divergence" `Quick
          test_guard_fires_on_divergence;
      ] );
    ( "replay.queries",
      [
        Alcotest.test_case "matrix300 c vs full trace" `Quick
          test_last_write_matrix300;
        Alcotest.test_case "li mark_count vs full trace" `Quick
          test_last_write_li;
        Alcotest.test_case "answers survive eviction" `Quick
          test_queries_survive_eviction;
      ] );
    ( "replay.session",
      [
        Alcotest.test_case "refuses without a journal" `Quick
          test_session_without_journal;
        Alcotest.test_case "resolve_addr forms" `Quick test_resolve_addr_forms;
        Alcotest.test_case "telemetry + audit plumbing" `Quick
          test_replay_observability;
        Alcotest.test_case "report after travel is the live run's" `Quick
          test_report_after_travel_is_live;
      ] );
  ]
