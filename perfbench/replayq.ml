(* replay-query: record three SPEC analogues at O_full through the
   checkpoint journal with a live watch on a hot global, then ask the
   recording seeded retroactive questions — last write of every global,
   the watched word's full history, and time travel. *)

open Dbp

let programs =
  [ ("001.gcc1.35", "fold_count"); ("022.li", "mark_count"); ("008.espresso", "ncubes") ]

let checkpoint_every = 10_000

(* The scale of this workload's times is the bare interpreter's speed on
   the same three programs, measured before every recording: recording
   and re-execution are that interpreter plus replay's own work, and
   follow the host's drift as it does (the calibration kernels of
   {!Util} over-corrected here by half).  A time in reference seconds is
   the host time × (measured bare MIPS ÷ [ref_bare_mips]), about the
   bare MIPS of an unloaded reference host.  An interpreter gain therefore shows
   on suite-miss and not here; a change that costs restore, snapshots or
   short re-executions shows here. *)
let ref_bare_mips = 50.0
let travels_per_program = 20

let workload name =
  match Workloads.Spec.find name with Some w -> w | None -> failwith ("no workload " ^ name)

(* A live hit of the watched global: instruction count when the
   notification fired (a few check instructions after the store), store
   pc and the value written. *)
type live = { l_insn : int; l_pc : int; l_value : int }

type recording = {
  w : Workloads.Workload.t;
  watched : string;
  s : Session.t;
  lives : live list;  (* in execution order *)
  end_insn : int;
  final : (int * int) list;  (* query target address -> final word *)
  rec_s : float;
  rec_words : float;
  create_s : float;
  exit_code : int;
  output : string;
}

(* Every listed global at its first word, in a seeded order.  The set is
   the same in every iteration on purpose: a seeded array element would
   change how many queries scan the whole journal (an element last
   written early, or never), and with it which kind of query the tail
   percentile lands on. *)
let targets st (s : Session.t) =
  Sparc.Symtab.globals s.Session.symtab
  |> List.filter_map (fun (e : Sparc.Symtab.entry) ->
         match e.location with Sparc.Symtab.Absolute a -> Some (e.name, a) | _ -> None)
  |> List.sort compare |> Util.shuffle st

let record ?(oracle = false) l st ((w : Workloads.Workload.t), watched) =
  let s, create_s =
    Util.time (fun () ->
        Session.create ~options:(Suite.options w Instrument.O_full) ~checkpoint_every
          w.source)
  in
  let dbg = Debugger.create s in
  let lives = ref [] in
  Debugger.set_on_event dbg (fun e ->
      lives :=
        { l_insn = Machine.Cpu.instr_count s.Session.cpu; l_pc = e.Debugger.pc;
          l_value = e.Debugger.value }
        :: !lives);
  ignore (Debugger.watch dbg watched);
  if oracle then Session.install_oracle s;
  (* Collect the previous recording's garbage outside the timed part. *)
  Gc.full_major ();
  let w0 = Util.minor_words () in
  let (code, output), rec_s = Util.time (fun () -> Session.run ~fuel:Suite.fuel s) in
  let rec_words = Util.minor_words () -. w0 in
  if oracle then
    Util.expect l ~what:(w.name ^ " oracle missed hits") ~show:string_of_int 0
      (Session.missed_hits s);
  Util.check l (!lives <> []) (w.name ^ ": watched global never hit");
  let mem = Machine.Cpu.mem s.Session.cpu in
  let final =
    List.map (fun (_, a) -> (a, Machine.Memory.read_word mem a)) (targets st s)
  in
  { w; watched; s; lives = List.rev !lives; end_insn = Machine.Cpu.instr_count s.Session.cpu;
    final; rec_s; rec_words; create_s; exit_code = code; output }

(* Whether a live notification at [live_pc] reports the store at
   [store_pc].  Inline checks report the store itself; a check patched
   back in at O_full reports the trap that ends its patch stub (the
   stub starts with the store, under the instrumenter's patch label). *)
let same_store (s : Session.t) ~store_pc ~live_pc =
  store_pc = live_pc
  ||
  let image = s.Session.image in
  match Sparc.Assembler.label_of_addr image store_pc with
  | Some lbl when String.starts_with ~prefix:"__dbp_patch_" lbl ->
    let rec trap pc n =
      n > 0
      &&
      match Machine.Cpu.fetch_at s.Session.cpu pc with
      | Sparc.Insn.Trap _ -> pc = live_pc
      | _ -> trap (pc + 4) (n - 1)
    in
    trap store_pc 64
  | _ -> false

(* [query] names a repeated query: a [last_write] target or a program's
   [history] or [travel]s.  The same queries recur in every iteration, so
   each has a steady median; one median over a verb's mixed targets sat
   between cheap and full-scan queries and jumped by a fifth from run to
   run. *)
type sample = { verb : string; query : string; ms : float }

(* The seeded query batch against one recording; every answer is
   checked against the live hits or the recorded final memory. *)
let queries l st r =
  let samples = ref [] in
  (* One timed, checked query; [check] sees the answer. *)
  let timed verb query what f check =
    ignore
      (Util.op l what (fun () ->
           let x, t = Util.time f in
           samples := { verb; query; ms = t *. 1000.0 } :: !samples;
           check x))
  in
  let name = r.w.name in
  let watched_addr = Option.get (Session.resolve_addr r.s r.watched) in
  let last_live = List.nth r.lives (List.length r.lives - 1) in
  List.iter
    (fun (addr, final) ->
      let what = Printf.sprintf "%s last_write 0x%x" name addr in
      timed "last_write" what what (fun () -> Session.last_write r.s ~addr) @@ function
      | None -> Util.check l (addr <> watched_addr) (what ^ ": watched word never written")
      | Some { Session.wr_hit = h; _ } ->
        Util.expect l ~what:(what ^ " new value = final word") ~show:string_of_int final
          h.Replay.h_new;
        Util.check l (h.Replay.h_insn <= r.end_insn) (what ^ ": insn beyond the run");
        if addr = watched_addr then begin
          Util.check l
            (same_store r.s ~store_pc:h.Replay.h_pc ~live_pc:last_live.l_pc)
            (Printf.sprintf "%s: pc 0x%x is not the live hit's store (0x%x)" what
               h.Replay.h_pc last_live.l_pc);
          Util.expect l ~what:(what ^ " new") ~show:string_of_int last_live.l_value
            h.Replay.h_new;
          Util.check l (h.Replay.h_insn <= last_live.l_insn) (what ^ ": insn after the live hit");
          match List.rev r.lives with
          | _ :: prev :: _ ->
            Util.expect l ~what:(what ^ " old") ~show:string_of_int prev.l_value h.Replay.h_old;
            Util.check l (h.Replay.h_insn > prev.l_insn) (what ^ ": insn before previous hit")
          | _ -> ()
        end)
    r.final;
  timed "history" (name ^ " history") (name ^ " history")
    (fun () -> Session.write_history r.s ~lo:watched_addr ~hi:(watched_addr + 4))
    (fun hist ->
      Util.expect l ~what:(name ^ " history count") ~show:string_of_int (List.length r.lives)
        (List.length hist);
      if List.length hist = List.length r.lives then
        List.iter2
          (fun { Session.wr_hit = h; _ } lv ->
            Util.check l
              (same_store r.s ~store_pc:h.Replay.h_pc ~live_pc:lv.l_pc
              && h.Replay.h_new = lv.l_value && h.Replay.h_insn <= lv.l_insn)
              (Printf.sprintf "%s history entry at insn %d differs from live hit" name
                 h.Replay.h_insn))
          hist r.lives);
  for _ = 1 to travels_per_program do
    let insn = 1 + Random.State.int st r.end_insn in
    let what = Printf.sprintf "%s travel %d" name insn in
    timed "travel" (name ^ " travel") what
      (fun () -> Session.time_travel r.s ~insn)
      (fun _ ->
        Util.expect l ~what:(what ^ " lands") ~show:string_of_int insn
          (Machine.Cpu.instr_count r.s.Session.cpu))
  done;
  List.rev !samples

type iter = {
  setup_s : float;
  instrs : int;
  rec_s : float;
  rec_words : float;
  samples : sample list;
  answers : (string * int * int) list;  (* program, live hits, end insn *)
  bare_instrs : int;
  bare_s : float;
}

(* Record every program (seeded order) and query it, each after a bare
   run that sets the scale; [bare] holds each program's bare run, the
   reference for exit code and output. *)
let iteration ?oracle ~bare l st =
  let order = Util.shuffle st programs in
  let setup = ref 0.0 and instrs = ref 0 and rec_s = ref 0.0 and words = ref 0.0 in
  let samples = ref [] and answers = ref [] and bare_instrs = ref 0 and bare_s = ref 0.0 in
  List.iter
    (fun p ->
      let b = Suite.bare_run (Suite.bare_setup (workload (fst p))) in
      bare_instrs := !bare_instrs + b.stats.instrs;
      bare_s := !bare_s +. b.run_s;
      Util.op l (fst p ^ " record") (fun () ->
          let r = record ?oracle l st (workload (fst p), snd p) in
          let b : Suite.outcome = List.assoc r.w.name bare in
          Util.expect l ~what:(r.w.name ^ " recorded exit") ~show:string_of_int b.exit_code
            r.exit_code;
          Util.check l (r.output = b.output) (r.w.name ^ ": recorded output differs from bare run");
          r)
      |> Option.iter @@ fun r ->
      setup := !setup +. r.create_s;
      instrs := !instrs + r.end_insn;
      rec_s := !rec_s +. r.rec_s;
      words := !words +. r.rec_words;
      answers := (r.w.name, List.length r.lives, r.end_insn) :: !answers;
      samples := !samples @ queries l st r)
    order;
  { setup_s = !setup; instrs = !instrs; rec_s = !rec_s; rec_words = !words;
    samples = !samples; answers = List.sort compare !answers; bare_instrs = !bare_instrs;
    bare_s = !bare_s }

let run ~seed ~seconds (l : Util.ledger) (m : Util.metrics) =
  let st = Util.rng seed in
  (* Bare runs (the exit/output reference) and the exact companions. *)
  let rows = List.map (fun (name, _) -> Suite.cycle_row (workload name)) programs in
  let bare = List.map (fun ((b : Suite.outcome), (name, _, _, _)) -> (name, b)) rows in
  let cycles = List.map snd rows in
  let warm = iteration ~oracle:true ~bare l st in
  let iters = ref [] in
  let t_end = Util.now () +. seconds in
  while !iters = [] || Util.now () < t_end do
    let it = iteration ~bare l st in
    Util.check l (it.answers = warm.answers) "replay: live hits or run length differ between iterations";
    iters := it :: !iters
  done;
  let iters = List.rev !iters in
  let samples = List.concat_map (fun it -> it.samples) iters in
  let bare_mips it = float_of_int it.bare_instrs /. it.bare_s /. 1e6 in
  let k = Util.median (List.map bare_mips iters) /. ref_bare_mips in
  let mips it = float_of_int it.instrs /. it.rec_s /. 1e6 in
  let alloc it = it.rec_words /. (float_of_int it.instrs /. 1000.0) in
  let o0, ofull = Suite.overheads cycles in
  Printf.printf "replay-query: %d timed iterations\n" (List.length iters);
  Printf.printf "  %-28s %10.3f Minstr/s\n" "record_mips" (Util.median (List.map mips iters) /. k);
  Printf.printf "  %-28s %10.3f Minstr/s  (%.3f reference s per host s)\n" "host_record_mips"
    (Util.median (List.map mips iters)) k;
  Printf.printf "  %-28s %10.3f Minstr/s\n" "host_bare_mips" (Util.median (List.map bare_mips iters));
  List.iter
    (fun verb ->
      let xs = List.filter_map (fun s -> if s.verb = verb then Some (s.ms *. k) else None) samples in
      Printf.printf "  %-28s %10.3f ms  (%d samples)\n" (verb ^ "_p50_ms") (Util.median xs)
        (List.length xs))
    [ "last_write"; "history"; "travel" ];
  Printf.printf "  reference ms of each repeated query:\n";
  Util.latency m ~tail_pct:90.0 ~op:"query" (List.map (fun s -> (s.query, s.ms *. k)) samples);
  Util.metric m "setup_s" (k *. Util.median (List.map (fun it -> it.setup_s) (warm :: iters))) "s";
  Util.metric m "sim_mips" (Util.median (List.map mips iters) /. k) "Minstr/s";
  Util.metric m "overhead_pct" o0 "%";
  Util.metric m "overhead_opt_pct" ofull "%";
  Util.metric m "alloc_words_per_kinstr" (Util.median (List.map alloc iters)) "words";
  Util.metric m "peak_rss_mb" (Util.peak_rss_mb None) "MB"
