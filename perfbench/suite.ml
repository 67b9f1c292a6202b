(* suite-miss: the ten SPEC analogues, each run bare and then under
   BitmapInlineRegisters at O0 and at O_full with monitoring enabled and
   no regions — the monitor-miss steady state of Tables 1 and 2. *)

open Dbp

let fuel = 200_000_000

let options (w : Workloads.Workload.t) opt =
  {
    Instrument.default_options with
    strategy = Strategy.Bitmap_inline_registers;
    opt;
    fortran_idiom = Workloads.Workload.fortran_idiom w;
    instrument_runtime = true;
    exclude = w.library_functions;
  }

(* The tail of monitored run times.  The slowest classes are
   008.espresso at O0 and 001.gcc1.35 at O_full, which overlap, then
   001.gcc1.35 at O0 about a tenth faster: p92.5 falls inside the top
   band, not on the edge between bands as p90 does. *)
let tail_pct = 92.5

let opts = [ ("O0", Instrument.O0); ("O_full", Instrument.O_full) ]

type outcome = {
  exit_code : int;
  output : string;
  stats : Machine.Cpu.stats;
  run_s : float;
  words : float;  (* minor-heap words allocated by the run *)
}

(* Bare: compile, link and load (set-up), then Cpu.run (timed). *)
let bare_setup (w : Workloads.Workload.t) =
  let linked = Minic.Compile.compile_and_link w.source in
  let cpu = Machine.Cpu.create linked.image in
  Machine.Cpu.install_basic_services cpu;
  cpu

(* Each timed run starts from a collected heap, so no run pays for the
   previous one's garbage. *)
let bare_run cpu =
  Gc.full_major ();
  let w0 = Util.minor_words () in
  let code, run_s = Util.time (fun () -> Machine.Cpu.run ~fuel cpu) in
  let words = Util.minor_words () -. w0 in
  { exit_code = code; output = Machine.Cpu.output cpu;
    stats = Machine.Cpu.stats cpu; run_s; words }

let monitored_setup ?checkpoint_every w opt =
  let s = Session.create ~options:(options w opt) ?checkpoint_every w.source in
  Mrs.enable s.Session.mrs;
  s

let monitored_run s =
  Gc.full_major ();
  let w0 = Util.minor_words () in
  let (code, output), run_s = Util.time (fun () -> Session.run ~fuel s) in
  let words = Util.minor_words () -. w0 in
  { exit_code = code; output; stats = Session.stats s; run_s; words }

(* Check a monitored run against its bare run: same exit code, same
   output, and the registry's locked-in exit code. *)
let check_run l (w : Workloads.Workload.t) label ~bare o =
  let what = Printf.sprintf "%s/%s" w.name label in
  Util.expect l ~what:(what ^ " exit") ~show:string_of_int bare.exit_code
    o.exit_code;
  Util.check l (o.output = bare.output) (what ^ ": output differs from bare run");
  match w.expected_exit with
  | Some e -> Util.expect l ~what:(what ^ " expected exit") ~show:string_of_int e o.exit_code
  | None -> ()

type iter = {
  setup_s : float;
  mon_instrs : int;
  mon_run_s : float;
  mon_words : float;
  ops : (string * float) list;  (* (program/opt, host ms of one monitored run) *)
  cycles : (string * int * int * int) list;  (* name, bare, O0, O_full *)
}

(* Every program in a seeded order, each after a calibration. *)
let iteration st l =
  let order = Util.shuffle st Workloads.Spec.all in
  let setup = ref 0.0 and instrs = ref 0 and run_s = ref 0.0 and words = ref 0.0 in
  let ops = ref [] and cycles = ref [] in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      Util.calibrate ();
      let cpu, t = Util.time (fun () -> bare_setup w) in
      setup := !setup +. t;
      let bare =
        Util.op l (w.name ^ "/bare") (fun () ->
            let bare = bare_run cpu in
            Option.iter
              (fun e -> Util.expect l ~what:(w.name ^ "/bare exit") ~show:string_of_int e bare.exit_code)
              w.expected_exit;
            bare)
      in
      let mon (label, opt) =
        let s, t = Util.time (fun () -> monitored_setup w opt) in
        setup := !setup +. t;
        Util.op l (w.name ^ "/" ^ label) (fun () ->
            let o = monitored_run s in
            Option.iter (fun bare -> check_run l w label ~bare o) bare;
            instrs := !instrs + o.stats.instrs;
            run_s := !run_s +. o.run_s;
            words := !words +. o.words;
            ops := (w.name ^ "/" ^ label, o.run_s *. 1000.0) :: !ops;
            o.stats.cycles)
      in
      match (bare, List.map mon opts) with
      | Some b, [ Some c0; Some cf ] -> cycles := (w.name, b.stats.cycles, c0, cf) :: !cycles
      | _ -> ())
    order;
  {
    setup_s = !setup;
    mon_instrs = !instrs;
    mon_run_s = !run_s;
    mon_words = !words;
    ops = !ops;
    cycles = List.sort compare !cycles;
  }

let pct base v = 100.0 *. (float_of_int v /. float_of_int base -. 1.0)

(* Table 1 / Table 2 columns: mean simulated-cycle overhead over the
   programs, at O0 and at O_full. *)
let overheads cycles =
  ( Util.mean (List.map (fun (_, b, c0, _) -> pct b c0) cycles),
    Util.mean (List.map (fun (_, b, _, cf) -> pct b cf) cycles) )

(* Monitor-miss simulated cycles of one program: bare, O0, O_full.
   Returns the bare run too. *)
let cycle_row w =
  let bare = bare_run (bare_setup w) in
  let mon opt = (monitored_run (monitored_setup w opt)).stats.cycles in
  (bare, (w.Workloads.Workload.name, bare.stats.cycles, mon Instrument.O0, mon Instrument.O_full))

let run ~seed ~seconds (l : Util.ledger) (m : Util.metrics) =
  let st = Util.rng seed in
  (* Untimed warm-up iteration; its simulated counts are the reference
     every timed iteration must reproduce exactly. *)
  let warm = iteration st l in
  let iters = ref [] in
  let t_end = Util.now () +. seconds in
  while !iters = [] || Util.now () < t_end do
    let it = iteration st l in
    Util.check l (it.cycles = warm.cycles) "suite: simulated cycles differ between iterations";
    iters := it :: !iters
  done;
  let iters = List.rev !iters in
  let k = Util.host_factor () in
  let mips it = float_of_int it.mon_instrs /. it.mon_run_s /. 1e6 in
  let alloc it = it.mon_words /. (float_of_int it.mon_instrs /. 1000.0) in
  let o0, ofull = overheads warm.cycles in
  Printf.printf "suite-miss: %d timed iterations of %d programs\n" (List.length iters)
    (List.length warm.cycles);
  List.iter
    (fun (name, b, c0, cf) ->
      Printf.printf "  %-14s bare %11d cyc   O0 %+7.2f%%   O_full %+7.2f%%\n" name b
        (pct b c0) (pct b cf))
    warm.cycles;
  Printf.printf "  %-28s %10.3f Minstr/s  (%.3f reference s per host s)\n" "host_mips"
    (Util.median (List.map mips iters)) k;
  Printf.printf "  reference ms of each monitored run:\n";
  Util.latency m ~tail_pct ~op:"run"
    (List.concat_map (fun it -> List.map (fun (c, ms) -> (c, ms *. k)) it.ops) iters);
  Util.metric m "setup_s" (k *. Util.median (List.map (fun it -> it.setup_s) (warm :: iters))) "s";
  Util.metric m "sim_mips" (Util.median (List.map mips iters) /. k) "Minstr/s";
  Util.metric m "overhead_pct" o0 "%";
  Util.metric m "overhead_opt_pct" ofull "%";
  Util.metric m "alloc_words_per_kinstr" (Util.median (List.map alloc iters)) "words";
  Util.metric m "peak_rss_mb" (Util.peak_rss_mb None) "MB"
