(* service-fleet: the real dbreakd (front end plus one shard) serving
   back-to-back debug sessions on two loopback connections, driven in
   a closed loop by one client thread that blocks on its own sockets.
   Every reply is checked against the same session run in-process. *)

open Dbp

let connections = 2
let travel_points = 16
let variants = 4
let command_timeout_s = 60.0
let setup_repeats = 15

(* dbreakd exits on its own after this long, should the benchmark die
   without stopping it; every run ends well within it. *)
let serve_limit_s = 300

(* --- seeded session programs --------------------------------------------- *)

(* A variant of the 200-write inline program: the seed picks the
   increments and which global the session watches.  Constants stay
   small so every variant compiles to the same instruction shapes. *)
type variant = { src : string; var : string }

let variant st =
  let k = 1 + Random.State.int st 7 and j = Random.State.int st 50 in
  let src =
    Printf.sprintf
      {|int counter;
int total;

int bump(int k) {
  counter = counter + k;
  return counter;
}

int main() {
  int i;
  i = 0;
  while (i < 200) {
    total = total + bump(%d) + %d;
    i = i + 1;
  }
  return counter;
}
|}
      k j
  in
  { src; var = (if Random.State.bool st then "counter" else "total") }

let workload_of v =
  { Workloads.Workload.name = "fleet-" ^ v.var; lang = C; description = "service-fleet session";
    source = v.src; expected_exit = None; library_functions = [] }

let strategy = Strategy.Bitmap_inline_registers
let opt = "full"
let options = { Instrument.default_options with strategy; opt = Instrument.O_full }

(* --- the in-process answer key -------------------------------------------- *)

type oracle = {
  v : variant;
  addr : int;
  hits : Proto.reply_body list;
  exited : Proto.reply_body;
  last_write : Proto.reply_body;
  history : Proto.reply_body list;
  travels : (int * Proto.reply_body) array;
  verified : Proto.reply_body;
  run_words : float;
  run_instrs : int;
}

let wtype_name = function Some wt -> Write_type.to_string wt | None -> "untyped"

(* The session as dbreakd runs it (same options, checkpoint interval and
   hit rendering), answering every verb in-process. *)
let oracle st v =
  let s = Session.create ~options ~checkpoint_every:10_000 v.src in
  let dbg = Debugger.create s in
  let hits = ref [] in
  Debugger.set_on_event dbg (fun e ->
      hits :=
        Proto.Hit
          {
            name = e.Debugger.watch.Debugger.wname;
            insn = Machine.Cpu.instr_count s.Session.cpu;
            pc = e.Debugger.pc;
            addr = e.Debugger.addr;
            value = e.Debugger.value;
            func = Option.value ~default:"?" e.Debugger.in_function;
          }
        :: !hits);
  ignore (Debugger.watch dbg v.var);
  let w0 = Util.minor_words () in
  let code, output = Session.run ~fuel:Suite.fuel s in
  let run_words = Util.minor_words () -. w0 in
  (* Snapshot now: replay-based queries below re-fire the callback. *)
  let live_hits = List.rev !hits in
  let executed = Machine.Cpu.instr_count s.Session.cpu in
  let addr = Option.get (Session.resolve_addr s v.var) in
  let func pc = Option.value ~default:"?" (Debugger.function_of_pc s pc) in
  let last_write =
    match Session.last_write s ~addr with
    | None -> Proto.Never_written { target = v.var; addr }
    | Some { Session.wr_hit = h; wr_write_type } ->
      Proto.Last_write
        { target = v.var; addr; insn = h.Replay.h_insn; pc = h.Replay.h_pc;
          old_v = h.Replay.h_old; new_v = h.Replay.h_new;
          wtype = wtype_name wr_write_type; func = func h.Replay.h_pc }
  in
  let writes = Session.write_history s ~lo:addr ~hi:(addr + 4) in
  let history =
    Proto.History { count = List.length writes }
    :: List.map
         (fun { Session.wr_hit = h; wr_write_type } ->
           Proto.Write
             { insn = h.Replay.h_insn; pc = h.Replay.h_pc; addr = h.Replay.h_addr;
               old_v = h.Replay.h_old; new_v = h.Replay.h_new; wtype = wtype_name wr_write_type })
         writes
  in
  let travels =
    Array.init travel_points (fun _ ->
        let insn = 1 + Random.State.int st executed in
        let re = Session.time_travel s ~insn in
        (insn, Proto.Traveled { insn; reexecuted = re; pc = Machine.Cpu.pc s.Session.cpu }))
  in
  let rep = Verify.run ~audit:(Audit.report s.Session.audit) s.Session.plan in
  let verified =
    Proto.Verified
      { total = List.length rep.Verify.v_obligations; proved = rep.Verify.v_proved;
        refuted = rep.Verify.v_refuted; unknown = rep.Verify.v_unknown }
  in
  { v; addr; hits = live_hits; exited = Proto.Exited { code; executed; output };
    last_write; history; travels; verified; run_words; run_instrs = executed }

(* --- response framing ------------------------------------------------------ *)

(* One command's response: every frame up to its terminal frame.  A
   [history N] reply is followed by exactly N [write] frames that
   complete it — [Proto.terminal] marks neither as terminal, so a
   client that waits for a terminal frame alone never returns. *)
type framer = { mutable frames : Proto.reply list; mutable owed : int; mutable bad : string list }

let framer () = { frames = []; owed = -1; bad = [] }

(* Feed one line; [Some (frames, undecodable lines)] completes the
   response.  An undecodable frame ends it too (the caller counts it). *)
let feed f line =
  let finish () =
    let r = (List.rev f.frames, List.rev f.bad) in
    f.frames <- [];
    f.owed <- -1;
    f.bad <- [];
    Some r
  in
  match Proto.decode_reply line with
  | Error e ->
    f.bad <- (line ^ " (" ^ e ^ ")") :: f.bad;
    finish ()
  | Ok r -> (
    f.frames <- r :: f.frames;
    match r.Proto.r_body with
    | Proto.History { count } ->
      f.owed <- count;
      if count = 0 then finish () else None
    | Proto.Write _ when f.owed > 0 ->
      f.owed <- f.owed - 1;
      if f.owed = 0 then finish () else None
    | b -> if Proto.terminal b then finish () else None)

(* --- the daemon process ------------------------------------------------------ *)

type daemon = { pid : int; out : in_channel; port : int }

let spawn exe =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [| exe; "--port"; "0"; "--shards"; "1"; "--serve-for"; string_of_int serve_limit_s |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let out = Unix.in_channel_of_descr rd in
  let line = input_line out in
  match Scanf.sscanf_opt line "dbreakd listening on 127.0.0.1:%d" (fun p -> p) with
  | Some port -> { pid; out; port }
  | None -> failwith ("unexpected dbreakd banner: " ^ line)

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid);
  close_in_noerr d.out

(* --- connections -------------------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (* unterminated tail *)
  lines : string Queue.t;
  fr : framer;
}

let send c cmd =
  let frame = Proto.encode_command cmd ^ "\n" in
  let rec go off =
    if off < String.length frame then
      go (off + Unix.write_substring c.fd frame off (String.length frame - off))
  in
  go 0

(* Read what the socket has (blocking for at least one byte). *)
let fill c =
  let chunk = Bytes.create 65536 in
  let k = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if k = 0 then failwith "dbreakd closed the connection";
  Buffer.add_subbytes c.buf chunk 0 k;
  let data = Buffer.contents c.buf in
  Buffer.clear c.buf;
  let rec split start =
    match String.index_from_opt data start '\n' with
    | None -> Buffer.add_substring c.buf data start (String.length data - start)
    | Some i ->
      Queue.push (String.sub data start (i - start)) c.lines;
      split (i + 1)
  in
  split 0

(* Next complete response buffered on [c], if any. *)
let rec next_response c =
  if Queue.is_empty c.lines then None
  else match feed c.fr (Queue.pop c.lines) with Some r -> Some r | None -> next_response c

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; buf = Buffer.create 4096; lines = Queue.create (); fr = framer () }

(* Blocking request/response on one connection (set-up and warm-up). *)
let call c cmd =
  send c cmd;
  let rec wait () =
    match next_response c with
    | Some r -> r
    | None ->
      fill c;
      wait ()
  in
  wait ()

(* --- sessions ------------------------------------------------------------------- *)

type step = { verb : string; cmd : Proto.command; expect : Proto.reply_body list }

(* The verbs of {!script}, in order. *)
let verbs = [ "open"; "arm"; "run"; "last_write"; "history"; "travel"; "verify"; "close" ]

let script ~sid ~travel (o : oracle) =
  let insn, traveled = travel in
  [
    { verb = "open";
      cmd = Proto.Open { sid; source = Proto.Program o.v.src; strategy = Strategy.to_string strategy; opt };
      expect = [ Proto.Opened { name = "program"; strategy = Strategy.to_string strategy; opt } ] };
    { verb = "arm"; cmd = Proto.Arm { sid; target = Proto.Var o.v.var };
      expect = [ Proto.Armed { name = o.v.var; lo = o.addr; len = 4 } ] };
    { verb = "run"; cmd = Proto.Run { sid; fuel = Suite.fuel }; expect = o.hits @ [ o.exited ] };
    { verb = "last_write"; cmd = Proto.Query_last_write { sid; target = o.v.var };
      expect = [ o.last_write ] };
    { verb = "history"; cmd = Proto.Query_history { sid; target = o.v.var; len = 4 };
      expect = o.history };
    { verb = "travel"; cmd = Proto.Travel { sid; insn }; expect = [ traveled ] };
    { verb = "verify"; cmd = Proto.Verify { sid }; expect = [ o.verified ] };
    { verb = "close"; cmd = Proto.Close { sid }; expect = [ Proto.Closed ] };
  ]

let body_string b = Proto.encode_reply { Proto.r_sid = "_"; r_seq = 0; r_body = b }

(* Check one response against the in-process answer: same frames, all
   tagged with the session id, sequence numbers strictly increasing
   across the session, nothing undecodable, verification clean. *)
let check_response l ~sid ~last_seq step (frames, bad) =
  List.iter (fun b -> Util.check l false ("undecodable frame: " ^ b)) bad;
  let bodies = List.map (fun r -> r.Proto.r_body) frames in
  List.iter
    (fun r ->
      Util.check l (r.Proto.r_sid = sid)
        (Printf.sprintf "%s %s: reply for session %s" sid step.verb r.Proto.r_sid);
      Util.check l (r.Proto.r_seq > !last_seq)
        (Printf.sprintf "%s %s: sequence %d not after %d" sid step.verb r.Proto.r_seq !last_seq);
      last_seq := r.Proto.r_seq)
    frames;
  (match bodies with
  | [ Proto.Verified { total; proved; refuted; unknown } ] ->
    Util.check l (refuted = 0 && unknown = 0 && proved = total)
      (Printf.sprintf "%s verify: %d refuted, %d unknown of %d" sid refuted unknown total)
  | _ -> ());
  if bodies <> step.expect then begin
    let rec first i = function
      | a :: ra, b :: rb -> if a = b then first (i + 1) (ra, rb) else (i, body_string a, body_string b)
      | a :: _, [] -> (i, body_string a, "(nothing)")
      | [], b :: _ -> (i, "(nothing)", body_string b)
      | [], [] -> (i, "", "")
    in
    let i, got, want = first 0 (bodies, step.expect) in
    Util.check l false
      (Printf.sprintf "%s %s: wire frame %d differs from the in-process answer: got %S, want %S"
         sid step.verb i got want)
  end

(* --- the closed loop ------------------------------------------------------------- *)

type sample = { s_verb : string; s_ms : float }

type client = {
  c : conn;
  name : string;
  mutable n : int;  (* sessions started *)
  mutable steps : step list;  (* remaining, head in flight *)
  mutable sent_at : float;
  mutable sid : string;
  last_seq : int ref;
  mutable executed : int;  (* simulated instructions of the current session *)
  mutable frames_seen : int;  (* reply frames received *)
  mutable hits_seen : int;  (* of which streamed hits *)
}

let clients conns =
  List.mapi
    (fun i c ->
      { c; name = Printf.sprintf "c%d" (i + 1); n = 0; steps = []; sent_at = 0.0; sid = "";
        last_seq = ref 0; executed = 0; frames_seen = 0; hits_seen = 0 })
    conns

let start_session st oracles cl =
  cl.n <- cl.n + 1;
  cl.sid <- Printf.sprintf "%s-%d" cl.name cl.n;
  cl.last_seq := 0;
  let o = oracles.(Random.State.int st (Array.length oracles)) in
  let travel = o.travels.(Random.State.int st travel_points) in
  cl.steps <- script ~sid:cl.sid ~travel o;
  cl.executed <- (match o.exited with Proto.Exited { executed; _ } -> executed | _ -> 0)

let send_step cl =
  match cl.steps with
  | s :: _ ->
    cl.sent_at <- Util.now ();
    send cl.c s.cmd
  | [] -> ()

(* Drive every client's sessions until [deadline], then let in-flight
   sessions finish.  Returns (samples, sessions completed, simulated
   instructions of completed sessions, elapsed seconds). *)
let closed_loop l st oracles clients ~deadline =
  let samples = ref [] and completed = ref 0 and instrs = ref 0 in
  let t0 = Util.now () in
  let t_last = ref t0 in
  List.iter (fun cl -> start_session st oracles cl; send_step cl) clients;
  let active = ref clients in
  while !active <> [] do
    let fds = List.map (fun cl -> cl.c.fd) !active in
    let ready, _, _ =
      try Unix.select fds [] [] command_timeout_s
      with Unix.Unix_error (Unix.EINTR, _, _) -> (fds, [], [])
    in
    if ready = [] then failwith "dbreakd: no reply within the command timeout";
    List.iter
      (fun cl ->
        if List.mem cl.c.fd ready then begin
          fill cl.c;
          let rec drain () =
            match next_response cl.c with
            | None -> ()
            | Some resp ->
              let now = Util.now () in
              let frames = fst resp in
              cl.frames_seen <- cl.frames_seen + List.length frames;
              cl.hits_seen <-
                cl.hits_seen
                + List.length
                    (List.filter (fun r -> match r.Proto.r_body with Proto.Hit _ -> true | _ -> false)
                       frames);
              (match cl.steps with
              | step :: rest ->
                samples := { s_verb = step.verb; s_ms = (now -. cl.sent_at) *. 1000.0 } :: !samples;
                ignore
                  (Util.op l (cl.sid ^ " " ^ step.verb) (fun () ->
                       check_response l ~sid:cl.sid ~last_seq:cl.last_seq step resp));
                cl.steps <- rest;
                if rest = [] then begin
                  incr completed;
                  instrs := !instrs + cl.executed;
                  t_last := now;
                  if now < deadline then start_session st oracles cl
                  else active := List.filter (fun x -> x != cl) !active
                end;
                send_step cl
              | [] -> Util.check l false (cl.name ^ ": reply with no command in flight"));
              drain ()
          in
          drain ()
        end)
      !active
  done;
  (List.rev !samples, !completed, !instrs, !t_last -. t0)

(* --- set-up ------------------------------------------------------------------------ *)

(* Spawn dbreakd, read its port, connect and greet on every connection. *)
let setup l exe =
  let d = spawn exe in
  let conns =
    List.init connections (fun _ ->
        let c = connect d.port in
        (match call c Proto.Hello with
        | [ { Proto.r_body = Proto.Hello_ok; _ } ], [] -> Util.check l true "hello"
        | _ -> Util.check l false "hello: unexpected greeting");
        c)
  in
  (d, conns)

let teardown (d, conns) =
  List.iter (fun c -> Unix.close c.fd) conns;
  stop d

let run ~exe ~seed ~seconds (l : Util.ledger) (m : Util.metrics) =
  let st = Util.rng seed in
  let vs = List.init variants (fun _ -> variant st) in
  let oracles = Array.of_list (List.map (oracle st) vs) in
  (* Exact companions (monitor-miss cycle overheads of the variants, run
     in-process: dbreakd reports no cycles), and each variant's bare run
     as the reference for the in-process answer's exit code and output. *)
  let cycles =
    List.map2
      (fun v o ->
        let (bare : Suite.outcome), row = Suite.cycle_row (workload_of v) in
        Util.check l
          (o.exited = Proto.Exited { code = bare.exit_code; executed = o.run_instrs; output = bare.output })
          "service-fleet: in-process session's exit code or output differs from the bare run";
        row)
      vs (Array.to_list oracles)
  in
  (* Timed set-ups; the last one serves the run. *)
  let setups = List.init setup_repeats (fun _ -> Util.time (fun () -> setup l exe)) in
  List.iteri (fun i (s, _) -> if i < List.length setups - 1 then teardown s) setups;
  let ((d, conns) as live), _ = List.nth setups (List.length setups - 1) in
  Fun.protect ~finally:(fun () -> teardown live) @@ fun () ->
  let clients = clients conns in
  (* Warm-up: one untimed session per connection. *)
  ignore (closed_loop l st oracles clients ~deadline:0.0);
  let samples, completed, instrs, elapsed =
    closed_loop l st oracles clients ~deadline:(Util.now () +. seconds)
  in
  let peak = Util.peak_rss_mb (Some d.pid) in
  let o0, ofull = Suite.overheads cycles in
  let alloc =
    Util.median
      (Array.to_list
         (Array.map (fun o -> o.run_words /. (float_of_int o.run_instrs /. 1000.0)) oracles))
  in
  Printf.printf "service-fleet: %d sessions on %d connections in %.2f s\n" completed
    connections elapsed;
  Printf.printf "  %-28s %10.3f 1/s\n" "sessions_per_s" (float_of_int completed /. elapsed);
  Util.latency m ~tail_pct:98.0 ~op:"cmd" (List.map (fun s -> (s.s_verb, s.s_ms)) samples);
  (* Host seconds, unlike the in-process workloads' set-up: a process
     spawn does not follow the calibration kernel, and rescaling it
     tripled its spread. *)
  Util.metric m "setup_s" (Util.median (List.map snd setups)) "s";
  Util.metric m "sim_mips" (float_of_int instrs /. elapsed /. 1e6) "Minstr/s";
  Util.metric m "overhead_pct" o0 "%";
  Util.metric m "overhead_opt_pct" ofull "%";
  Util.metric m "alloc_words_per_kinstr" alloc "words";
  Util.metric m "peak_rss_mb" peak "MB"
