(* Randomized end-to-end property: for arbitrary (terminating) mini-C
   programs, instrumentation under every strategy/optimization level
   must preserve behaviour exactly, and with a region armed the oracle
   must see no missed hits.

   The generator builds structured programs from a fixed variable pool:
   bounded [for] loops only, no recursion, indices masked into range —
   so every generated program terminates and never faults. *)

open Dbp

type genv = { loop_vars : string list; depth : int }

let scalars = [ "g0"; "g1"; "a"; "b"; "c" ]

let rec gen_expr env fuel st =
  let open QCheck.Gen in
  let atom =
    oneof
      [
        map string_of_int (int_range (-20) 20);
        oneofl (scalars @ env.loop_vars);
        (if env.loop_vars = [] then oneofl scalars else oneofl env.loop_vars);
      ]
  in
  if fuel = 0 then atom st
  else
    (frequency
       [
         (2, atom);
         ( 3,
           let* op = oneofl [ "+"; "-"; "*"; "&"; "|"; "^" ] in
           let* l = gen_expr env (fuel - 1) in
           let* r = gen_expr env (fuel - 1) in
           return (Printf.sprintf "(%s %s %s)" l op r) );
         ( 1,
           (* safe division: divisor forced non-zero *)
           let* l = gen_expr env (fuel - 1) in
           let* r = gen_expr env (fuel - 1) in
           return (Printf.sprintf "(%s / ((%s & 7) + 1))" l r) );
         ( 1,
           let* op = oneofl [ "<"; "<="; "=="; "!=" ] in
           let* l = gen_expr env (fuel - 1) in
           let* r = gen_expr env (fuel - 1) in
           return (Printf.sprintf "(%s %s %s)" l op r) );
         ( 1,
           let* idx = gen_expr env (fuel - 1) in
           return (Printf.sprintf "ga[(%s) & 15]" idx) );
       ])
      st

let gen_lvalue env st =
  let open QCheck.Gen in
  (oneof
     [
       oneofl (List.filter (fun v -> not (List.mem v env.loop_vars)) scalars);
       (let* idx = gen_expr env 1 in
        return (Printf.sprintf "ga[(%s) & 15]" idx));
     ])
    st

let rec gen_stmt env st =
  let open QCheck.Gen in
  (frequency
     [
       ( 4,
         let* lv = gen_lvalue env in
         let* e = gen_expr env 2 in
         return (Printf.sprintf "%s = %s;" lv e) );
       ( 1,
         let* e = gen_expr env 2 in
         return (Printf.sprintf "c = helper(%s, b);" e) );
       ( (if env.depth > 0 then 2 else 0),
         let* cond = gen_expr env 1 in
         let* then_ = gen_block { env with depth = env.depth - 1 } in
         let* else_ = gen_block { env with depth = env.depth - 1 } in
         return (Printf.sprintf "if (%s) { %s } else { %s }" cond then_ else_) );
       ( (if env.depth > 0 && List.length env.loop_vars < 3 then 2 else 0),
         let v = Printf.sprintf "i%d" (List.length env.loop_vars) in
         let* n = int_range 1 6 in
         let* body =
           gen_block { loop_vars = v :: env.loop_vars; depth = env.depth - 1 }
         in
         return
           (Printf.sprintf "for (%s = 0; %s < %d; %s = %s + 1) { %s }" v v n v v
              body) );
     ])
    st

and gen_block env st =
  let open QCheck.Gen in
  (let* n = int_range 1 3 in
   let* stmts = list_repeat n (gen_stmt env) in
   return (String.concat " " stmts))
    st

let gen_program st =
  let open QCheck.Gen in
  (let* helper_body = gen_expr { loop_vars = []; depth = 0 } 2 in
   let* body = gen_block { loop_vars = []; depth = 2 } in
   return
     (Printf.sprintf
        {|
int g0;
int g1;
int ga[16];
int helper(int a, int b) {
  int c;
  c = %s;
  return c;
}
int main() {
  int a; int b; int c;
  int i0; int i1; int i2;
  a = 3; b = 5; c = 7;
  %s
  return (g0 ^ g1 ^ a ^ b ^ c ^ ga[3]) & 65535;
}
|}
        helper_body body))
    st

let arb_program = QCheck.make ~print:(fun s -> s) gen_program

let configurations =
  [
    { Instrument.default_options with strategy = Strategy.Bitmap_inline_registers };
    { Instrument.default_options with strategy = Strategy.Cache_inline };
    { Instrument.default_options with strategy = Strategy.Bitmap;
      opt = Instrument.O_symbol };
    { Instrument.default_options with opt = Instrument.O_full };
    { Instrument.default_options with monitor_reads = true };
    { Instrument.default_options with strategy = Strategy.Cache;
      single_cache = true; disabled_guard = false };
  ]

let prop_semantics_and_soundness =
  QCheck.Test.make ~name:"random programs: instrumentation preserves semantics, oracle sound"
    ~count:40 arb_program (fun src ->
      let expect, _ = Minic.Compile.run ~fuel:5_000_000 src in
      List.for_all
        (fun options ->
          let session = Session.create ~options src in
          Session.install_oracle session;
          let dbg = Debugger.create session in
          ignore (Debugger.watch dbg "g0");
          ignore (Debugger.watch dbg "ga");
          let code, _ = Session.run ~fuel:20_000_000 session in
          code = expect && Session.missed_hits session = 0)
        configurations)

(* Differential check for the interpreter's two execution paths: a
   plain run takes the pre-decoded closure fast path on every step,
   while a no-op probe on every text pc forces every step through the
   probe slow path (the generic [execute] interpreter), with no-op
   store/load hooks exercising the hook dispatch as well.  The two runs
   must agree bit-for-bit: exit code, every stat counter (including
   cache hits/misses and cycles), program output, and final memory. *)

let memory_dump cpu =
  let words = ref [] in
  Machine.Memory.iter_written (Machine.Cpu.mem cpu) (fun addr v ->
      words := (addr, v) :: !words);
  List.sort compare !words

let prop_fast_path_differential =
  QCheck.Test.make
    ~name:"random programs: pre-decoded fast path == generic interpreter"
    ~count:30 arb_program (fun src ->
      let linked = Minic.Compile.compile_and_link src in
      let image = linked.Minic.Compile.image in
      let fuel = 20_000_000 in
      (* Fast path: empty probe table, no hooks. *)
      let fast = Machine.Cpu.create image in
      Machine.Cpu.install_basic_services fast;
      let fast_code = Machine.Cpu.run ~fuel fast in
      (* Slow path: a no-op probe on every pc and no-op hooks. *)
      let slow = Machine.Cpu.create image in
      Machine.Cpu.install_basic_services slow;
      for i = 0 to Array.length image.Sparc.Assembler.text - 1 do
        Machine.Cpu.add_probe slow
          (image.Sparc.Assembler.text_base + (4 * i))
          (fun _ -> ())
      done;
      Machine.Cpu.set_store_hook slow (fun _ ~addr:_ ~width:_ -> ());
      Machine.Cpu.set_load_hook slow (fun _ ~addr:_ ~width:_ -> ());
      let slow_code = Machine.Cpu.run ~fuel slow in
      fast_code = slow_code
      && Machine.Cpu.stats fast = Machine.Cpu.stats slow
      && Machine.Cpu.output fast = Machine.Cpu.output slow
      && memory_dump fast = memory_dump slow)

(* Live/replay epoch: retroactive queries re-execute the recorded run
   in the machine's replay epoch, where no live observer fires.  A
   session with every observer attached answers a random sequence of
   queries and must then report exactly what its query-free twin
   reports — telemetry (replay cost aside), MRS counters, profile,
   sample ring, heatmap, debugger events and breakpoint counts. *)

type query = Last_write of string | History of string | Travel of int

let print_query = function
  | Last_write v -> "last-write " ^ v
  | History v -> "history " ^ v
  | Travel permille -> Printf.sprintf "travel %d/1000" permille

let gen_query =
  let open QCheck.Gen in
  let var = oneofl [ "g0"; "g1"; "ga" ] in
  oneof
    [
      map (fun v -> Last_write v) var;
      map (fun v -> History v) var;
      map (fun p -> Travel p) (int_range 0 1000);
    ]

let arb_program_queries =
  QCheck.make
    ~print:(fun (src, qs) ->
      src ^ "\nqueries: " ^ String.concat "; " (List.map print_query qs))
    QCheck.Gen.(pair gen_program (list_size (int_range 1 4) gen_query))

let epoch_configurations =
  [
    { Instrument.default_options with opt = Instrument.O_full;
      check_aliases = true };
    { Instrument.default_options with strategy = Strategy.Cache;
      monitor_reads = true };
    { Instrument.default_options with strategy = Strategy.Hash_table;
      opt = Instrument.O_symbol };
  ]

(* Everything a live observer exposes, rendered to strings so one
   comparison covers it all (the telemetry JSON carries the sample
   ring); [restores]/[replayed_instrs] are the replay epoch's own
   counters and the only ones a query may move. *)
let live_view ~queries options src =
  let session =
    Session.create ~options ~checkpoint_every:97 ~profile:true
      ~sample_every:37 ~heatmap:true src
  in
  Session.install_oracle session;
  let dbg = Debugger.create session in
  ignore (Debugger.watch dbg "g0");
  ignore (Debugger.watch dbg "ga");
  Debugger.break_at dbg "helper" (fun _ _ -> ());
  ignore (Session.run ~fuel:20_000_000 session);
  let end_insn = (Session.stats session).Machine.Cpu.instrs in
  List.iter
    (fun q ->
      let addr v = Option.get (Session.resolve_addr session v) in
      match q with
      | Last_write v -> ignore (Session.last_write session ~addr:(addr v))
      | History v ->
        let lo = addr v in
        ignore (Session.write_history session ~lo ~hi:(lo + 8))
      | Travel p ->
        ignore (Session.time_travel session ~insn:(end_insn * p / 1000)))
    queries;
  let rep = Session.report session in
  let masked =
    {
      rep with
      Telemetry.r_counters =
        List.filter
          (fun (name, _) -> name <> "restores" && name <> "replayed_instrs")
          rep.Telemetry.r_counters;
    }
  in
  let c = Mrs.counters session.Session.mrs in
  Session.heatmap_sync_regions session;
  [
    ("telemetry", Export.to_json_string masked);
    ( "mrs counters",
      Printf.sprintf "%d %d %d %d %d %d %d" c.Mrs.user_hits c.Mrs.read_hits
        c.Mrs.internal_hits c.Mrs.loop_entries c.Mrs.loop_triggers
        c.Mrs.patches_inserted c.Mrs.violations );
    ("profile", Profile.to_json_string (Session.profile_report session));
    ( "heatmap",
      Heatmap.to_json_string (Option.get session.Session.heatmap) );
    ( "debugger",
      Printf.sprintf "events=%d breaks=%d"
        (List.length (Debugger.events dbg))
        (Debugger.break_count dbg "helper") );
  ]

let prop_queries_invisible_to_live_observers =
  QCheck.Test.make
    ~name:"random programs + queries: live observers match a query-free twin"
    ~count:20 arb_program_queries (fun (src, queries) ->
      List.for_all
        (fun options ->
          let twin = live_view ~queries:[] options src in
          let queried = live_view ~queries options src in
          List.for_all2
            (fun (what, a) (_, b) ->
              a = b
              ||
              let n = min (String.length a) (String.length b) in
              let i = ref 0 in
              while !i < n && a.[!i] = b.[!i] do incr i done;
              let around s =
                let lo = max 0 (!i - 60) in
                String.sub s lo (min 120 (String.length s - lo))
              in
              QCheck.Test.fail_reportf "%s differs at byte %d:\n%s\nvs\n%s"
                what !i (around a) (around b))
            twin queried)
        epoch_configurations)

let suites =
  [
    ( "dbp.fuzz",
      [
        QCheck_alcotest.to_alcotest prop_semantics_and_soundness;
        QCheck_alcotest.to_alcotest prop_fast_path_differential;
        QCheck_alcotest.to_alcotest prop_queries_invisible_to_live_observers;
      ] );
  ]
