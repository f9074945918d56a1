(* Exit codes of the chfc binary.  Every input the CLI refuses ends in
   one "chfc:" line on stderr and a documented exit code: 2 for a bad
   name, argument, input or output path, 1 for a table that lists a
   failure, 124 for a command line cmdliner cannot parse.  None may end
   in cmdliner's internal-error exit 125.

   The unwritable paths sit below a regular file, so opening, creating or
   binding them fails (ENOTDIR) wherever the suite runs. *)

let chfc = "../bin/chfc.exe"
let kernel = "../examples/kernels/checksum.k"

(* a path whose parent directory is a regular file *)
let blocked =
  let file = Filename.temp_file "chfc-cli" ".file" in
  at_exit (fun () -> try Sys.remove file with Sys_error _ -> ());
  fun name -> Filename.concat file name

(* run chfc, discarding stdout: its exit code and its stderr lines *)
let run args =
  let err = Filename.temp_file "chfc-cli" ".err" in
  let code =
    Sys.command
      (Filename.quote_command chfc args ~stdout:Filename.null ~stderr:err)
  in
  let lines =
    In_channel.with_open_bin err In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Sys.remove err;
  (code, lines)

let expect_exit code args () =
  let got, _ = run args in
  Alcotest.(check int) (String.concat " " args) code got

(* the exit code, and exactly one stderr line, starting "chfc:" *)
let expect_one_line code args () =
  let got, lines = run args in
  let what = String.concat " " args in
  Alcotest.(check int) (what ^ ": exit code") code got;
  match lines with
  | [ l ] when String.starts_with ~prefix:"chfc: " l -> ()
  | _ ->
    Alcotest.failf "%s: expected one chfc: line on stderr, got %a" what
      Fmt.(Dump.list string)
      lines

let refused =
  [
    ("unknown --arg name", [ "compile-file"; kernel; "--arg"; "bogus=1" ]);
    ("negative --memory", [ "compile-file"; kernel; "--arg"; "n=10"; "--memory=-5" ]);
    ("compile --trace", [ "compile"; "sieve"; "--trace"; blocked "x.jsonl" ]);
    ("compile --chrome-trace", [ "compile"; "sieve"; "--chrome-trace"; blocked "x.json" ]);
    ("compile --metrics-json", [ "compile"; "sieve"; "--metrics-json"; blocked "m.json" ]);
    ("compile --emit-asm", [ "compile"; "sieve"; "--emit-asm"; blocked "x.s" ]);
    ("compile --emit-dot", [ "compile"; "sieve"; "--emit-dot"; blocked "x.dot" ]);
    ( "table3 --metrics-json",
      [ "table3"; "-w"; "gzip_1"; "-j"; "1"; "--metrics-json"; blocked "m.json" ] );
    ("report --out", [ "report"; "-w"; "sieve"; "--out"; blocked "r.txt" ]);
    ("fuzz --json", [ "fuzz"; "--count"; "1"; "--json"; blocked "f.json" ]);
    ("serve --socket", [ "serve"; "--socket"; blocked "s.sock"; "--quiet" ]);
    ("unknown workload", [ "compile"; "nosuch" ]);
    ("kernel out of fuel", [ "compile-file"; kernel; "--arg"; "n=100000000" ]);
  ]

let suite =
  ( "cli",
    List.map
      (fun (name, args) ->
        Alcotest.test_case ("exit 2: " ^ name) `Quick (expect_one_line 2 args))
      refused
    @ [
        Alcotest.test_case "exit 1: table with a failure footer" `Quick
          (expect_exit 1
             [ "placement"; "-w"; "vadd"; "-j"; "1"; "--stage-deadline"; "0.0000001" ]);
        Alcotest.test_case "exit 124: parse error" `Quick
          (expect_exit 124 [ "compile"; "--bogus" ]);
      ] )
