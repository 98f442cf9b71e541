(** The engine flight recorder: an always-on, fixed-size ring buffer of
    structured engine decisions.

    The paper's pitch is diagnosability; a bug report that says *what*
    went wrong is only half the story when a tiered engine decided *how*
    the faulting code was running.  Every consequential engine decision
    — tier-up with the hotness numbers that triggered it, deopt with the
    managed-error kind, OSR entry, inline accept/reject with the cost
    model's inputs, managed-error raise —
    is recorded here.  The ring is tiny (a few hundred entries), the
    record path is a couple of stores plus a counter bump, and every
    recorded kind is rare by construction (they happen per function or
    per error, never per instruction), so the recorder stays enabled in
    every build and every run.

    Consumers: [Bugreport] embeds [to_lines] in every provenance report,
    difftest attaches the ring to every divergence, and the per-kind
    [Metrics] counters ride the existing snapshot merge so campaign
    workers ship event summaries to the parent for free. *)

type event =
  | Tier_up of {
      ev_fn : string;
      ev_ops : int;  (** hotness counter (modeled ops) at the decision *)
      ev_invocations : int;
      ev_osr : bool;  (** decided at a loop header, not a call *)
    }
  | Deopt of {
      ev_fn : string;
      ev_kind : string;  (** managed-error category *)
      ev_osr : bool;  (** the discarded frame was OSR-entered *)
    }
  | Osr_enter of { ev_fn : string; ev_block : string }
  | Inline_accept of {
      ev_caller : string;
      ev_callee : string;
      ev_size : int;  (** callee instruction count *)
      ev_budget : int;  (** caller budget remaining before splicing *)
    }
  | Inline_reject of {
      ev_caller : string;
      ev_callee : string;
      ev_size : int;
      ev_budget : int;
      ev_reason : string;
    }
  | Error_raised of { ev_kind : string; ev_msg : string }

(** [e_line] is the entry's rendered line, made at most once, when a
    [to_lines] call first needs it: a report lists every entry still in
    the ring, so rendering at each call would re-format the lines that
    earlier programs left. *)
type entry = { e_seq : int; e_event : event; mutable e_line : string option }

let capacity = 256

let ring : entry option array = Array.make capacity None
let seq = ref 0

let kind_name = function
  | Tier_up _ -> "tier_up"
  | Deopt _ -> "deopt"
  | Osr_enter _ -> "osr_enter"
  | Inline_accept _ -> "inline_accept"
  | Inline_reject _ -> "inline_reject"
  | Error_raised _ -> "error_raised"

(** Record [ev].  Also bumps the per-kind [events.<kind>] counter
    unconditionally: these are cold-path sites, and the counters are how
    campaign workers ship event summaries to the parent (the snapshot
    merge adds them up). *)
let record (ev : event) : unit =
  Metrics.incr (Metrics.counter ("events." ^ kind_name ev));
  ring.(!seq mod capacity) <- Some { e_seq = !seq; e_event = ev; e_line = None };
  incr seq

(** Clear the ring.  [Difftest.run_seed] resets per seed so the ring a
    divergence ships is exactly the decisions of that seed's runs,
    independent of what ran before it in the chunk. *)
let reset () : unit =
  Array.fill ring 0 capacity None;
  seq := 0

(** Entries still in the ring, oldest first. *)
let recent () : entry list =
  let n = !seq in
  let first = max 0 (n - capacity) in
  let acc = ref [] in
  for i = n - 1 downto first do
    match ring.(i mod capacity) with
    | Some e when e.e_seq = i -> acc := e :: !acc
    | _ -> ()
  done;
  !acc

let render (e : entry) : string =
  let body =
    match e.e_event with
    | Tier_up t ->
      Printf.sprintf "%-14s %s (ops=%d, invocations=%d%s)" "tier-up" t.ev_fn
        t.ev_ops t.ev_invocations
        (if t.ev_osr then ", at loop header" else "")
    | Deopt d ->
      Printf.sprintf "%-14s %s (%s%s)" "deopt" d.ev_fn d.ev_kind
        (if d.ev_osr then ", osr frame" else "")
    | Osr_enter o -> Printf.sprintf "%-14s %s @%s" "osr-enter" o.ev_fn o.ev_block
    | Inline_accept i ->
      Printf.sprintf "%-14s %s <- %s (size=%d, budget=%d)" "inline-accept"
        i.ev_caller i.ev_callee i.ev_size i.ev_budget
    | Inline_reject i ->
      Printf.sprintf "%-14s %s <- %s (size=%d, budget=%d): %s" "inline-reject"
        i.ev_caller i.ev_callee i.ev_size i.ev_budget i.ev_reason
    | Error_raised r -> Printf.sprintf "%-14s %s: %s" "error" r.ev_kind r.ev_msg
  in
  Printf.sprintf "#%-5d %s" e.e_seq body

(** The ring rendered one line per entry, oldest first — the form
    [Bugreport] and difftest divergences embed.  Each entry is rendered
    once; later calls return the same strings. *)
let to_lines () : string list =
  List.map
    (fun e ->
      match e.e_line with
      | Some l -> l
      | None ->
        let l = render e in
        e.e_line <- Some l;
        l)
    (recent ())
