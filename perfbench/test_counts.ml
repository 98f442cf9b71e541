(** Count determinism: two traced runs of one seed must report identical
    values for every count the program makes, so that a later change can
    rest a claim on a count.  Each workload must also exercise the counts
    of the layers it was chosen for. *)

let counts =
  [ "cfront.tokens"; "lower.instrs"; "ir.verify_instrs"; "interp.prepared_funcs";
    "interp.steps"; "opt.rounds"; "jit.compiles"; "jit.osr_entries";
    "jit.deopts"; "managed.allocs"; "native.steps" ]

(* workload, units per run (compute: one full pass), counts that must be
   nonzero on it *)
let workloads =
  [
    ( "bugs", 20,
      [ "cfront.tokens"; "lower.instrs"; "ir.verify_instrs";
        "interp.prepared_funcs"; "interp.steps" ] );
    ( "compute", 9,
      [ "interp.prepared_funcs"; "interp.steps"; "jit.compiles";
        "jit.osr_entries"; "managed.allocs" ] );
    ( "difftest", 4,
      [ "cfront.tokens"; "lower.instrs"; "ir.verify_instrs";
        "interp.prepared_funcs"; "interp.steps"; "opt.rounds"; "jit.compiles";
        "managed.allocs"; "native.steps" ] );
  ]

(** Run one traced benchmark process; return its result object. *)
let traced_run workload units =
  let exe = "perfbench/main.exe" in
  let args =
    [| exe; "--workload"; workload; "--seed"; "3"; "--units";
       string_of_int units; "--trace"; "1" |]
  in
  let ic = Unix.open_process_args_in exe args in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (workload ^ ": benchmark process failed"));
  let last = List.hd (List.rev (String.split_on_char '\n' (String.trim out))) in
  match Trace.parse_json last with
  | Trace.Jobj fields -> fields
  | _ -> failwith (workload ^ ": no result object")

let value fields name =
  match List.assoc_opt "metrics" fields with
  | Some (Trace.Jobj ms) -> (
    match List.assoc_opt name ms with
    | Some (Trace.Jobj m) -> (
      match List.assoc_opt "value" m with
      | Some (Trace.Jnum v) -> v
      | _ -> failwith (name ^ ": no value"))
    | _ -> failwith (name ^ ": missing"))
  | _ -> failwith "no metrics"

let () =
  (* The benchmark runs from the root of the tree it reads
     perfbench/expected from: here the build directory. *)
  Sys.chdir "..";
  let failures = ref 0 in
  let fail fmt =
    Printf.ksprintf (fun s -> incr failures; print_endline ("FAIL " ^ s)) fmt
  in
  List.iter
    (fun (w, units, exercised) ->
      let a = traced_run w units and b = traced_run w units in
      List.iter
        (fun r ->
          if List.assoc_opt "correct" r <> Some (Trace.Jbool true) then
            fail "%s: run not correct" w)
        [ a; b ];
      List.iter
        (fun name ->
          let va = value a name and vb = value b name in
          if va <> vb then fail "%s: %s differs, %.17g vs %.17g" w name va vb;
          if List.mem name exercised && not (va > 0.) then
            fail "%s: %s is %g, expected work" w name va)
        counts;
      Printf.printf "%s: %d counts repeat over two runs of %d units\n" w
        (List.length counts) units)
    workloads;
  if !failures > 0 then exit 1
