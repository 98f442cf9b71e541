(** Write the corpus bugs, their repaired variants, the bench programs
    and the programs of [Tier_faults] (faults in compiled code, slot
    shapes, indirect calls of the other class) to the
    directory named on the command line, for test/surfaces.sh:
    [NAME.c], the program arguments after argv[0] one per line in
    [NAME.argv] ([sulong run] passes the file name as argv[0]), and the
    standard input in [NAME.input]. *)

let write dir file text =
  Out_channel.with_open_bin (Filename.concat dir file) (fun oc ->
      output_string oc text)

let program dir name ~args ~input src =
  if List.exists (fun a -> String.contains a '\n') args then
    failwith (name ^ ": an argument holds a newline");
  write dir (name ^ ".c") src;
  write dir (name ^ ".argv") (String.concat "" (List.map (fun a -> a ^ "\n") args));
  write dir (name ^ ".input") input

let () =
  let dir = Sys.argv.(1) in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun (p : Groundtruth.program) ->
      let args = List.tl p.Groundtruth.argv and input = p.Groundtruth.input in
      program dir p.Groundtruth.id ~args ~input p.Groundtruth.source;
      Option.iter
        (program dir (p.Groundtruth.id ^ "-fixed") ~args ~input)
        p.Groundtruth.fixed)
    Corpus.all;
  List.iter
    (fun (b : Benchprogs.bench) ->
      program dir b.Benchprogs.b_name ~args:[] ~input:"" b.Benchprogs.b_source)
    Benchprogs.all;
  List.iter (fun (name, src) -> program dir name ~args:[] ~input:"" src)
    (Tier_faults.all @ Tier_faults.edges)
