(* perfbench: see perfbench/NOTES.md.

   main.exe --workload NAME --seed N --seconds S --trace 0|1 [--dbreakd EXE]
            [--out DIR]

   Prints a human-readable report and, as its last line, one JSON
   object: {"correct", "attempted", "failed", "metrics"}. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload suite-miss|replay-query|service-fleet --seed N \
     --seconds S --trace 0|1 [--dbreakd EXE] [--out DIR]";
  exit 2

let json_number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let print_result (l : Util.ledger) (m : Util.metrics) =
  List.iter (fun n -> Printf.printf "FAILED: %s\n" n) (List.rev l.notes);
  Printf.printf "%-40s %18s  %s\n" "metric" "value" "unit";
  List.iter (fun (n, v, u) -> Printf.printf "%-40s %18.6f  %s\n" n v u) !m;
  let fields =
    List.map
      (fun (n, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
      !m
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (l.failed = 0) l.attempted l.failed (String.concat ", " fields)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let dbreakd = ref "" and out = ref "perfbench/out" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--dbreakd" :: v :: rest -> dbreakd := v; parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  let l = Util.ledger () and m = ref [] in
  let seed = !seed and seconds = !seconds and exe = !dbreakd in
  Selfcheck.run l;
  (* A run that cannot report its metrics as defined prints no result. *)
  (try
     match (!workload, !trace) with
     | ("suite-miss" | "replay-query" | "service-fleet"), 1 ->
       Layers.run ~workload:!workload ~exe ~seed ~seconds ~out:!out l m
     | "suite-miss", _ -> Suite.run ~seed ~seconds l m
     | "replay-query", _ -> Replayq.run ~seed ~seconds l m
     | "service-fleet", _ -> Fleet.run ~exe ~seed ~seconds l m
     | _ -> usage ()
   with Failure msg ->
     prerr_endline ("perfbench: " ^ msg);
     exit 1);
  print_result l m
