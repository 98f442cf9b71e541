(** Tests for the work-stealing campaign driver (lib/difftest/campaign),
    its framed worker transport (lib/difftest/wire), the persistent
    ledger, and the deduplicating bug store (lib/bugdb/bugstore).

    The fault-injection cases fork real worker processes and SIGKILL
    them mid-campaign, so this suite runs as its own executable under
    the @farm alias (wired into the default @runtest). *)

let features = Cgen.int_only

(* Two campaign runs "match" when they cover the same seeds and agree on
   every verdict; only rp_elapsed_s may differ. *)
let report_fingerprint (r : Difftest.report) : string =
  Printf.sprintf "start=%d seeds=%d features=%s agree=%d reject=%d divs=[%s]"
    r.Difftest.rp_seed_start r.Difftest.rp_seeds r.Difftest.rp_features
    r.Difftest.rp_agree r.Difftest.rp_reject
    (String.concat ";"
       (List.map
          (fun d ->
            Printf.sprintf "%d:%s:%s" d.Difftest.dv_seed d.Difftest.dv_mismatch
              (Difftest.signature_key d.Difftest.dv_sig))
          r.Difftest.rp_divergences))

(* ---------------- chunking and shard boundaries ---------------- *)

let check_cover what ~seed_start ~seeds (chunks : Campaign.chunk list) =
  (* Exactly-once coverage: the chunks, in order, tile the seed range. *)
  let next = ref seed_start in
  List.iter
    (fun c ->
      if c.Campaign.ck_start <> !next then
        Alcotest.failf "%s: chunk starts at %d, expected %d" what
          c.Campaign.ck_start !next;
      if c.Campaign.ck_len <= 0 then
        Alcotest.failf "%s: empty chunk at %d" what c.Campaign.ck_start;
      next := c.Campaign.ck_start + c.Campaign.ck_len)
    chunks;
  Alcotest.(check int) (what ^ ": chunks end at range end") (seed_start + seeds)
    !next

let test_chunks_of () =
  let chunks ~seed_start ~seeds ~chunk_size =
    Campaign.chunks_of ~seed_start ~seeds ~chunk_size
  in
  check_cover "even split" ~seed_start:0 ~seeds:20
    (chunks ~seed_start:0 ~seeds:20 ~chunk_size:5);
  check_cover "remainder" ~seed_start:0 ~seeds:23
    (chunks ~seed_start:0 ~seeds:23 ~chunk_size:5);
  check_cover "offset start" ~seed_start:1000 ~seeds:7
    (chunks ~seed_start:1000 ~seeds:7 ~chunk_size:3);
  check_cover "chunk larger than range" ~seed_start:3 ~seeds:4
    (chunks ~seed_start:3 ~seeds:4 ~chunk_size:100);
  check_cover "chunk of one" ~seed_start:0 ~seeds:5
    (chunks ~seed_start:0 ~seeds:5 ~chunk_size:1);
  Alcotest.(check int) "empty range has no chunks" 0
    (List.length (chunks ~seed_start:0 ~seeds:0 ~chunk_size:5));
  Alcotest.(check int) "even split count" 4
    (List.length (chunks ~seed_start:0 ~seeds:20 ~chunk_size:5));
  Alcotest.(check int) "remainder adds a short tail chunk" 5
    (List.length (chunks ~seed_start:0 ~seeds:23 ~chunk_size:5))

(* ---------------- wire framing ---------------- *)

let test_wire_roundtrip () =
  let r, w = Unix.pipe () in
  let sent = ("hello", [ 1; 2; 3 ], 4.5) in
  Wire.send w sent;
  (match Wire.recv r with
  | Ok v ->
    Alcotest.(check bool) "value round-trips" true (v = sent)
  | Error `Eof -> Alcotest.fail "unexpected EOF"
  | Error (`Corrupt msg) -> Alcotest.failf "unexpected corruption: %s" msg);
  Unix.close w;
  (match Wire.recv r with
  | Error `Eof -> ()
  | Ok _ -> Alcotest.fail "expected EOF after close"
  | Error (`Corrupt msg) -> Alcotest.failf "EOF read as corruption: %s" msg);
  Unix.close r

let test_wire_detects_corruption () =
  (* Capture a frame, flip one payload byte, replay it. *)
  let r, w = Unix.pipe () in
  Wire.send w (42, "payload");
  Unix.close w;
  let buf = Bytes.create 65536 in
  let n = Unix.read r buf 0 (Bytes.length buf) in
  Unix.close r;
  Alcotest.(check bool) "frame is header + payload" true (n > 16);
  Bytes.set buf (n - 1) (Char.chr (Char.code (Bytes.get buf (n - 1)) lxor 0xff));
  let r2, w2 = Unix.pipe () in
  let _ = Unix.write w2 buf 0 n in
  Unix.close w2;
  (match Wire.recv r2 with
  | Error (`Corrupt _) -> ()
  | Ok _ -> Alcotest.fail "corrupted frame accepted"
  | Error `Eof -> Alcotest.fail "corrupted frame read as EOF");
  Unix.close r2;
  (* A truncated frame (killed writer) must read as corruption or EOF,
     never as a value. *)
  let r3, w3 = Unix.pipe () in
  let _ = Unix.write w3 buf 0 (n / 2) in
  Unix.close w3;
  (match Wire.recv r3 with
  | Ok _ -> Alcotest.fail "truncated frame accepted"
  | Error (`Eof | `Corrupt _) -> ());
  Unix.close r3

let test_wire_rejects_garbage () =
  let r, w = Unix.pipe () in
  let junk = Bytes.of_string "this is not a SULG frame, not even close." in
  let _ = Unix.write w junk 0 (Bytes.length junk) in
  Unix.close w;
  (match Wire.recv r with
  | Error (`Corrupt _ | `Eof) -> ()
  | Ok _ -> Alcotest.fail "garbage accepted as a frame");
  Unix.close r

(* ---------------- campaign vs in-process oracle ---------------- *)

let seeds = 18

let baseline =
  lazy (Difftest.run ~features ~seed_start:0 ~seeds ())

let test_campaign_matches_run () =
  let o = Campaign.run ~features ~jobs:2 ~chunk:4 ~seed_start:0 ~seeds () in
  Alcotest.(check string) "campaign report equals in-process run"
    (report_fingerprint (Lazy.force baseline))
    (report_fingerprint o.Campaign.co_report);
  check_cover "campaign chunks" ~seed_start:0 ~seeds
    (List.map
       (fun cr ->
         { Campaign.ck_start = cr.Campaign.cr_start; ck_len = cr.Campaign.cr_len })
       o.Campaign.co_chunks);
  Alcotest.(check int) "no worker deaths" 0 o.Campaign.co_worker_deaths;
  Alcotest.(check bool) "not interrupted" false o.Campaign.co_interrupted

let test_campaign_streams_progress () =
  (* The ?progress callback must fire as chunks complete (not once at
     the end), monotonically, and reach the full seed count. *)
  let calls = ref [] in
  let _ =
    Campaign.run ~features ~jobs:2 ~chunk:4 ~seed_start:0 ~seeds
      ~progress:(fun n -> calls := n :: !calls)
      ()
  in
  let calls = List.rev !calls in
  Alcotest.(check bool) "several progress events" true (List.length calls >= 3);
  Alcotest.(check bool) "monotonic" true
    (fst
       (List.fold_left
          (fun (ok, prev) n -> (ok && n > prev, n))
          (true, -1) calls));
  Alcotest.(check int) "last event covers all seeds" seeds
    (List.nth calls (List.length calls - 1))

let test_campaign_survives_worker_death () =
  (* Chaos hook: SIGKILL the worker right after it is handed its chunk,
     twice, at different points in the campaign.  The driver must
     requeue the lost chunks, respawn workers, and produce the same
     report as an unkilled run — every seed exactly once. *)
  let kills = ref 2 in
  let chaos (ck : Campaign.chunk) =
    if !kills > 0 && ck.Campaign.ck_start mod 8 = 4 then begin
      decr kills;
      true
    end
    else false
  in
  let o =
    Campaign.run ~features ~jobs:2 ~chunk:4 ~seed_start:0 ~seeds ~chaos ()
  in
  Alcotest.(check bool) "workers died" true (o.Campaign.co_worker_deaths >= 1);
  Alcotest.(check bool) "chunks were requeued" true
    (o.Campaign.co_requeues >= 1);
  Alcotest.(check string) "report identical to unkilled run"
    (report_fingerprint (Lazy.force baseline))
    (report_fingerprint o.Campaign.co_report);
  check_cover "chunks still tile the range" ~seed_start:0 ~seeds
    (List.map
       (fun cr ->
         { Campaign.ck_start = cr.Campaign.cr_start; ck_len = cr.Campaign.cr_len })
       o.Campaign.co_chunks)

(* ---------------- ledger round-trip ---------------- *)

let with_temp f =
  let file = Filename.temp_file "sulong-campaign" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () -> f file)

let test_ledger_roundtrip () =
  with_temp (fun ledger ->
      let o1 =
        Campaign.run ~features ~jobs:2 ~chunk:4 ~ledger ~seed_start:0 ~seeds ()
      in
      (* Simulate a crash: drop the last complete line and leave a torn
         fragment of it behind. *)
      let ic = open_in_bin ledger in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let lines = String.split_on_char '\n' s |> List.filter (( <> ) "") in
      let keep = List.filteri (fun i _ -> i < List.length lines - 1) lines in
      let torn = List.nth lines (List.length lines - 1) in
      let oc = open_out_bin ledger in
      List.iter (fun l -> output_string oc (l ^ "\n")) keep;
      output_string oc (String.sub torn 0 (String.length torn / 2));
      close_out oc;
      let o2 = Campaign.resume ~jobs:2 ~ledger () in
      Alcotest.(check bool) "resume skipped completed seeds" true
        (o2.Campaign.co_resumed_seeds > 0
        && o2.Campaign.co_resumed_seeds < seeds);
      Alcotest.(check string) "resumed report equals original"
        (report_fingerprint o1.Campaign.co_report)
        (report_fingerprint o2.Campaign.co_report);
      (* After resume the ledger must be whole again: a second resume
         parses it and has nothing left to do. *)
      let o3 = Campaign.resume ~ledger () in
      Alcotest.(check int) "ledger now complete" seeds
        o3.Campaign.co_resumed_seeds;
      Alcotest.(check string) "second resume still matches"
        (report_fingerprint o1.Campaign.co_report)
        (report_fingerprint o3.Campaign.co_report))

let test_ledger_rejects_garbage () =
  let expect_error what file =
    match Campaign.load_ledger ~file with
    | _ -> Alcotest.failf "%s: bogus ledger accepted" what
    | exception Campaign.Ledger_error _ -> ()
  in
  with_temp (fun file ->
      let oc = open_out_bin file in
      output_string oc "{\"ledger\": \"some-other-tool\", \"version\": 1}\n";
      close_out oc;
      expect_error "wrong tag" file);
  with_temp (fun file ->
      let oc = open_out_bin file in
      close_out oc;
      expect_error "empty file" file);
  with_temp (fun file ->
      (* A malformed line that is NOT final is corruption, not a torn
         append — it must raise rather than silently dropping seeds. *)
      let header =
        Campaign.header_line
          {
            Campaign.lh_seed_start = 0;
            lh_seeds = 10;
            lh_features = features;
            lh_chunk = 5;
            lh_shrink = false;
            lh_shrink_budget = 200;
          }
      in
      let oc = open_out_bin file in
      output_string oc (header ^ "\n");
      output_string oc "{\"chunk_start\": 0, \"len\": 5, \"ag\n";
      output_string oc
        "{\"chunk_start\": 5, \"len\": 5, \"agree\": 5, \"rejects\": 0, \
         \"divergences\": []}\n";
      close_out oc;
      expect_error "mid-file corruption" file)

(* A chunk line carrying everything at once — a divergence with hostile
   characters, flight-recorder events and a reduced form, plus per-seed
   stats — must survive the serialize/parse round trip (the ledger is
   the only path where these travel as JSON rather than Marshal). *)
let test_ledger_divergence_roundtrip () =
  let d =
    {
      Difftest.dv_seed = 42;
      dv_mismatch = "outcome \"a\" vs b\\c";
      dv_sig =
        { Difftest.sg_kind = "detected:oob"; sg_loc = "t.c:3:1"; sg_configs = 6 };
      dv_source = "int main(void) {\n  return \"x\"[9];\n}";
      dv_reduced = Some "int main(void) { return 1; }";
      dv_oracle_calls = 17;
      dv_events =
        [ "#0     tier-up        main (ops=3, invocations=1)"; "#1     deopt  main (\"oob\")" ];
    }
  in
  let cr =
    {
      Campaign.cr_start = 40;
      cr_len = 5;
      cr_agree = 4;
      cr_reject = 0;
      cr_divergences = [ d ];
      cr_stats =
        [
          { Difftest.ss_seed = 40; ss_elapsed_s = 0.125; ss_steps = 9001 };
          { Difftest.ss_seed = 41; ss_elapsed_s = 0.5; ss_steps = 12 };
        ];
    }
  in
  let cr' =
    Campaign.chunk_result_of_json (Trace.parse_json (Campaign.chunk_line cr))
  in
  Alcotest.(check int) "start" cr.Campaign.cr_start cr'.Campaign.cr_start;
  (match cr'.Campaign.cr_divergences with
  | [ d' ] ->
    Alcotest.(check int) "seed" d.Difftest.dv_seed d'.Difftest.dv_seed;
    Alcotest.(check string) "mismatch" d.Difftest.dv_mismatch
      d'.Difftest.dv_mismatch;
    Alcotest.(check string) "source" d.Difftest.dv_source d'.Difftest.dv_source;
    Alcotest.(check (option string)) "reduced" d.Difftest.dv_reduced
      d'.Difftest.dv_reduced;
    Alcotest.(check (list string)) "events" d.Difftest.dv_events
      d'.Difftest.dv_events;
    Alcotest.(check int) "configs" d.Difftest.dv_sig.Difftest.sg_configs
      d'.Difftest.dv_sig.Difftest.sg_configs
  | ds -> Alcotest.failf "expected 1 divergence, got %d" (List.length ds));
  match cr'.Campaign.cr_stats with
  | [ s0; s1 ] ->
    Alcotest.(check int) "stat seed" 40 s0.Difftest.ss_seed;
    Alcotest.(check (float 1e-6)) "stat elapsed" 0.125 s0.Difftest.ss_elapsed_s;
    Alcotest.(check int) "stat steps" 9001 s0.Difftest.ss_steps;
    Alcotest.(check int) "stat seed 2" 41 s1.Difftest.ss_seed
  | ss -> Alcotest.failf "expected 2 seed stats, got %d" (List.length ss)

(* ---------------- bug store ---------------- *)

let test_bugstore_dedup () =
  let t = Bugstore.create () in
  let record ~seed ~repro =
    Bugstore.record t ~key:"detected:oob @ t.c:3:1 # 0x6" ~kind:"detected:oob"
      ~loc:"t.c:3:1" ~configs:6 ~seed ~mismatch:"exit status differs" ~repro
  in
  Alcotest.(check bool) "first sighting is new" true
    (record ~seed:50 ~repro:"int main() { return 0; }" = `New);
  Alcotest.(check bool) "same signature is a dup" true
    (record ~seed:12 ~repro:"short" = `Dup);
  Alcotest.(check bool) "other signature is new" true
    (Bugstore.record t ~key:"other" ~kind:"finished:1" ~loc:"" ~configs:1
       ~seed:99 ~mismatch:"m" ~repro:"r"
    = `New);
  Alcotest.(check int) "two unique signatures" 2 (Bugstore.size t);
  let e =
    List.find
      (fun e -> e.Bugstore.be_kind = "detected:oob")
      (Bugstore.entries t)
  in
  Alcotest.(check int) "count accumulates" 2 e.Bugstore.be_count;
  Alcotest.(check int) "first seed is the minimum" 12 e.Bugstore.be_first_seed;
  Alcotest.(check string) "shortest reproducer wins" "short"
    e.Bugstore.be_repro

let test_bugstore_save_load () =
  with_temp (fun file ->
      let t = Bugstore.create () in
      ignore
        (Bugstore.record t ~key:"k \"quoted\"\n" ~kind:"detected:div0"
           ~loc:"a.c:1:2" ~configs:3 ~seed:7 ~mismatch:"m\twith\ttabs"
           ~repro:"line1\nline2\n");
      ignore
        (Bugstore.record t ~key:"k2" ~kind:"finished:3" ~loc:"" ~configs:128
           ~seed:1 ~mismatch:"m2" ~repro:"r2");
      Bugstore.save t ~file;
      let t2 = Bugstore.load ~file in
      Alcotest.(check int) "size survives" (Bugstore.size t)
        (Bugstore.size t2);
      List.iter2
        (fun a b ->
          Alcotest.(check bool)
            (Printf.sprintf "entry %s round-trips" a.Bugstore.be_key)
            true (a = b))
        (Bugstore.entries t) (Bugstore.entries t2);
      (* Loading a missing file starts an empty store (first campaign). *)
      Sys.remove file;
      Alcotest.(check int) "missing file loads empty" 0
        (Bugstore.size (Bugstore.load ~file)))

let test_signature_key () =
  let obs_sig =
    {
      Difftest.sg_kind = "detected:oob|finished:0";
      sg_loc = "t.c:4:9";
      sg_configs = 0x44;
    }
  in
  Alcotest.(check string) "rendered key"
    "detected:oob|finished:0 @ t.c:4:9 # 0x44"
    (Difftest.signature_key obs_sig);
  Alcotest.(check string) "missing location renders as -"
    "finished:1 @ - # 0x2"
    (Difftest.signature_key
       { Difftest.sg_kind = "finished:1"; sg_loc = ""; sg_configs = 2 })

let () =
  Alcotest.run "campaign"
    [
      ( "chunking",
        [
          Alcotest.test_case "chunks_of boundaries" `Quick test_chunks_of;
        ] );
      ( "wire",
        [
          Alcotest.test_case "round-trip and EOF" `Quick test_wire_roundtrip;
          Alcotest.test_case "detects corruption" `Quick
            test_wire_detects_corruption;
          Alcotest.test_case "rejects garbage" `Quick test_wire_rejects_garbage;
        ] );
      ( "driver",
        [
          Alcotest.test_case "matches in-process run" `Slow
            test_campaign_matches_run;
          Alcotest.test_case "streams progress" `Slow
            test_campaign_streams_progress;
          Alcotest.test_case "survives worker death" `Slow
            test_campaign_survives_worker_death;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "write, tear, resume" `Slow test_ledger_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick
            test_ledger_rejects_garbage;
          Alcotest.test_case "divergence with events + stats round-trips"
            `Quick test_ledger_divergence_roundtrip;
        ] );
      ( "bug store",
        [
          Alcotest.test_case "dedups by signature" `Quick test_bugstore_dedup;
          Alcotest.test_case "save/load round-trip" `Quick
            test_bugstore_save_load;
          Alcotest.test_case "signature key rendering" `Quick
            test_signature_key;
        ] );
    ]
