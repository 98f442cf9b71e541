(** One entry point per experiment, plus [run_all] — what `sulong report`
    calls.  Each function prints the same rows/series the paper's
    corresponding table or figure shows. *)

let hr title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let fig1 () =
  hr "FIG1 - CVE vulnerabilities by category (2012-03..2017-09)";
  Figures12.print (Figures12.run Gen.Cve)

let fig2 () =
  hr "FIG2 - ExploitDB exploits by category (2012-03..2017-09)";
  Figures12.print (Figures12.run Gen.Exploitdb)

let effectiveness () =
  hr "TAB1 / TAB2 / CMP - bug-finding effectiveness (paper 4.1)";
  ignore (Effectiveness.print_all ())

let startup () =
  hr "STARTUP - hello-world start-up cost (paper 4.2)";
  Table.print (Perfreport.startup_table ())

let fig15 () =
  hr "FIG15 - warm-up on meteor (paper 4.2)";
  print_string (Perfreport.warmup_report ())

let fig16 () =
  hr "FIG16 - peak performance (paper 4.3)";
  ignore (Perfreport.print_peak ())

let ablations () =
  hr "ABLATIONS - one mechanism flipped at a time (DESIGN.md par. 5)";
  Ablations.print ()

let run_all () =
  fig1 ();
  fig2 ();
  effectiveness ();
  startup ();
  fig15 ();
  fig16 ();
  ablations ()
