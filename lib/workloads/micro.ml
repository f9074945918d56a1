(* The 24 microbenchmarks of Tables 1 and 2.

   The paper derives its microbenchmarks by extracting loops and
   procedures from SPEC2000, GMTI radar kernels, a 10x10 matrix multiply,
   sieve and Dhrystone.  We reconstruct each as a mini-language kernel
   with the control-flow character the paper attributes to it: trip
   counts, branch bias, merge-point structure and dependence shape are
   the properties hyperblock formation reacts to, so those are what each
   kernel reproduces (see each kernel's [description]).  Data is
   deterministic (seeded LCG). *)

open Trips_lang

let fill_with seed ?bound () a =
  let rng = Rng.create seed in
  Rng.fill ?bound rng a

(* ------------------------------------------------------------------ *)

let vadd =
  let open Ast in
  Workload.make ~name:"vadd"
    ~description:"dense vector add; single for loop, front-end unrolling does the work"
    ~memory_words:8192
    ~init_memory:(fill_with 11 ())
    {
      prog_name = "vadd";
      params = [];
      body =
        [
          "acc" <-- i 0;
          for_ "k" (i 0) (i 1500)
            [
              Store (i 4096 + v "k", mem (v "k") + mem (i 2048 + v "k"));
            ];
          for_ "k" (i 0) (i 1500) [ "acc" <-- (v "acc" + mem (i 4096 + v "k")) ];
          Return (Some (v "acc"));
        ];
    }

let matrix_1 =
  let open Ast in
  Workload.make ~name:"matrix_1"
    ~description:"10x10 integer matrix multiply; perfect for-loop nest, trip 10"
    ~memory_words:512
    ~init_memory:(fill_with 12 ~bound:32 ())
    {
      prog_name = "matrix_1";
      params = [];
      body =
        [
          for_ "r" (i 0) (i 10)
            [
              for_ "c" (i 0) (i 10)
                [
                  "s" <-- i 0;
                  for_ "k" (i 0) (i 10)
                    [
                      "s"
                      <-- (v "s"
                          + (mem ((v "r" * i 10) + v "k")
                            * mem (i 100 + (v "k" * i 10) + v "c")));
                    ];
                  Store (i 200 + (v "r" * i 10) + v "c", v "s");
                ];
            ];
          "acc" <-- i 0;
          for_ "k" (i 0) (i 100) [ "acc" <-- (v "acc" + mem (i 200 + v "k")) ];
          Return (Some (v "acc"));
        ];
    }

let sieve =
  let open Ast in
  Workload.make ~name:"sieve"
    ~description:"prime sieve; outer conditional guarding an inner strided store loop"
    ~memory_words:1200
    {
      prog_name = "sieve";
      params = [];
      body =
        [
          "count" <-- i 0;
          for_ "p" (i 2) (i 600)
            [
              If
                ( mem (v "p") = i 0,
                  [
                    "count" <-- (v "count" + i 1);
                    "j" <-- (v "p" + v "p");
                    While (v "j" < i 600,
                      [ Store (v "j", i 1); "j" <-- (v "j" + v "p") ]);
                  ],
                  [] );
            ];
          Return (Some (v "count"));
        ];
    }

let dct8x8 =
  let open Ast in
  Workload.make ~name:"dct8x8"
    ~description:"8x8 transform; dense mul/add nest with table lookups, trip 8"
    ~memory_words:1024
    ~init_memory:(fill_with 13 ~bound:64 ())
    {
      prog_name = "dct8x8";
      params = [];
      body =
        [
          for_ "u" (i 0) (i 8)
            [
              for_ "x2" (i 0) (i 8)
                [
                  "s" <-- i 0;
                  for_ "x" (i 0) (i 8)
                    [
                      "s"
                      <-- (v "s"
                          + (mem ((v "u" * i 8) + v "x")
                            * mem (i 64 + (v "x" * i 8) + v "x2")));
                    ];
                  Store (i 128 + (v "u" * i 8) + v "x2", v "s" >>> i 3);
                ];
            ];
          "acc" <-- i 0;
          for_ "k" (i 0) (i 64) [ "acc" <-- (v "acc" + mem (i 128 + v "k")) ];
          Return (Some (v "acc"));
        ];
    }

(* while loops with low trip counts: head duplication's best case *)
let init_ammp_1 a =
  let rng = Rng.create 14 in
  Array.iteri (fun k _ -> a.(k) <- 1 + Rng.int rng 5) a

let ammp_1 =
  let open Ast in
  Workload.make ~name:"ammp_1"
    ~description:"outer loop over atoms, two inner while loops with trip counts near 3 (Figure 1 shape)"
    ~memory_words:2048
    ~init_memory:init_ammp_1
    {
      prog_name = "ammp_1";
      params = [];
      body =
        [
          "acc" <-- i 0;
          for_ "atom" (i 0) (i 400)
            [
              "b1" <-- mem (v "atom");
              "k" <-- i 0;
              While (v "k" < v "b1",
                [ "acc" <-- (v "acc" + (v "k" * i 3)); "k" <-- (v "k" + i 1) ]);
              "b2" <-- mem (i 1024 + v "atom");
              "k" <-- i 0;
              While (v "k" < v "b2",
                [ "acc" <-- (v "acc" ^^^ (v "acc" >>> i 2)) ;
                  "acc" <-- (v "acc" + v "k");
                  "k" <-- (v "k" + i 1) ]);
            ];
          Return (Some (v "acc"));
        ];
    }

let ammp_2 =
  let open Ast in
  Workload.make ~name:"ammp_2"
    ~description:"neighbor-list walk: short data-dependent while loop with a guarded update"
    ~memory_words:2048
    ~init_memory:(fun a ->
      let rng = Rng.create 15 in
      Array.iteri (fun k _ -> a.(k) <- Rng.int rng 6) a)
    {
      prog_name = "ammp_2";
      params = [];
      body =
        [
          "acc" <-- i 0;
          for_ "atom" (i 0) (i 500)
            [
              "n" <-- mem (v "atom");
              "k" <-- i 0;
              While
                ( v "k" < v "n",
                  [
                    "d" <-- mem (i 1024 + ((v "atom" + v "k") % i 1024));
                    If (v "d" > i 2, [ "acc" <-- (v "acc" + v "d") ],
                       [ "acc" <-- (v "acc" + i 1) ]);
                    "k" <-- (v "k" + i 1);
                  ] );
            ];
          Return (Some (v "acc"));
        ];
    }

let art_1 =
  let open Ast in
  Workload.make ~name:"art_1"
    ~description:"neural match scan: for loop with a 50/50 data-dependent branch"
    ~memory_words:2048
    ~init_memory:(fill_with 16 ())
    {
      prog_name = "art_1";
      params = [];
      body =
        [
          "acc" <-- i 0;
          for_ "k" (i 0) (i 800)
            [
              "f" <-- mem (v "k" % i 2048);
              If (v "f" > i 128, [ "acc" <-- (v "acc" + v "f") ],
                 [ "acc" <-- (v "acc" + i 1) ]);
            ];
          Return (Some (v "acc"));
        ];
    }

let art_2 =
  let open Ast in
  Workload.make ~name:"art_2"
    ~description:"two-condition weight update: nested data-dependent branches"
    ~memory_words:2048
    ~init_memory:(fill_with 17 ())
    {
      prog_name = "art_2";
      params = [];
      body =
        [
          "acc" <-- i 0;
          for_ "k" (i 0) (i 700)
            [
              "f" <-- mem (v "k" % i 2048);
              If
                ( v "f" > i 64,
                  [
                    If (v "f" > i 192,
                       [ "acc" <-- (v "acc" + (v "f" * i 2)) ],
                       [ "acc" <-- (v "acc" + v "f") ]);
                  ],
                  [ "acc" <-- (v "acc" - i 1) ] );
            ];
          Return (Some (v "acc"));
        ];
    }

let art_3 =
  let open Ast in
  Workload.make ~name:"art_3"
    ~description:"winner search: running-max loop whose update branch is rare and unpredictable"
    ~memory_words:4096
    ~init_memory:(fill_with 18 ~bound:100000 ())
    {
      prog_name = "art_3";
      params = [];
      body =
        [
          "best" <-- i 0 - i 1;
          "idx" <-- i 0;
          for_ "k" (i 0) (i 2000)
            [
              "f" <-- mem (v "k" % i 4096);
              If (v "f" > v "best", [ "best" <-- v "f"; "idx" <-- v "k" ], []);
            ];
          Return (Some (v "best" + v "idx"));
        ];
    }

let bzip2_1 =
  let open Ast in
  Workload.make ~name:"bzip2_1"
    ~description:"byte histogram with a range test; predictable branch, load/store mix"
    ~memory_words:2304
    ~init_memory:(fill_with 19 ())
    {
      prog_name = "bzip2_1";
      params = [];
      body =
        [
          "acc" <-- i 0;
          for_ "k" (i 0) (i 1200)
            [
              "c" <-- mem (v "k" % i 2048);
              If
                ( v "c" < i 240,
                  [
                    Store (i 2048 + (v "c" % i 256),
                           mem (i 2048 + (v "c" % i 256)) + i 1);
                  ],
                  [ "acc" <-- (v "acc" + i 1) ] );
            ];
          for_ "k" (i 0) (i 256) [ "acc" <-- (v "acc" + mem (i 2048 + v "k")) ];
          Return (Some (v "acc"));
        ];
    }

let bzip2_2 =
  let open Ast in
  Workload.make ~name:"bzip2_2"
    ~description:"run-length scan: inner while with small data-dependent trips and a break"
    ~memory_words:4096
    ~init_memory:(fun a ->
      let rng = Rng.create 20 in
      Array.iteri (fun k _ -> a.(k) <- Rng.int rng 4) a)
    {
      prog_name = "bzip2_2";
      params = [];
      body =
        [
          "acc" <-- i 0;
          "p" <-- i 0;
          While
            ( v "p" < i 1500,
              [
                "run" <-- i 1;
                While
                  ( v "p" + v "run" < i 1500,
                    [
                      If (mem (v "p" + v "run") <> mem (v "p"), [ Break ], []);
                      "run" <-- (v "run" + i 1);
                      If (v "run" >= i 8, [ Break ], []);
                    ] );
                "acc" <-- (v "acc" + (v "run" * v "run"));
                "p" <-- (v "p" + v "run");
              ] );
          Return (Some (v "acc"));
        ];
    }

(* The adversarial case of Table 2: excluding the rare block forces tail
   duplication of the merge block containing the induction update, making
   the increment data-dependent on the test. *)
let bzip2_3 =
  let open Ast in
  Workload.make ~name:"bzip2_3"
    ~description:"main loop with a ~2% side block before the merge block holding the induction update"
    ~memory_words:4096
    ~init_memory:(fill_with 21 ())
    {
      prog_name = "bzip2_3";
      params = [];
      body =
        [
          "acc" <-- i 0;
          "j" <-- i 0;
          While
            ( v "j" < i 1500,
              [
                "x" <-- mem (v "j" % i 4096);
                If
                  ( v "x" >= i 251,  (* ~2% of byte values *)
                    [
                      "acc" <-- (v "acc" + (v "x" * i 3));
                      Store (v "j" % i 64, v "acc");
                    ],
                    [] );
                (* merge block: common work + induction update *)
                "acc" <-- (v "acc" + v "x");
                "j" <-- (v "j" + i 1);
              ] );
          Return (Some (v "acc"));
        ];
    }

let init_dhry a =
  let rng = Rng.create 22 in
  Array.iteri (fun k _ -> a.(k) <- Rng.int rng 4) a;
  (* short "strings": runs terminated by 0 every few words *)
  for k = 0 to Array.length a - 1 do
    if k mod 7 = 6 then a.(k) <- 0 else a.(k) <- 1 + (a.(k) land 3)
  done

let dhry =
  let open Ast in
  Workload.make ~name:"dhry"
    ~description:"Dhrystone-like record copies, enum dispatch via nested ifs, short string scans"
    ~memory_words:4096
    ~init_memory:init_dhry
    {
      prog_name = "dhry";
      params = [];
      body =
        [
          "acc" <-- i 0;
          for_ "it" (i 0) (i 300)
            [
              "base" <-- ((v "it" * i 11) % i 2048);
              (* record copy *)
              Store (i 3000 + (v "it" % i 64), mem (v "base"));
              Store (i 3100 + (v "it" % i 64), mem (v "base" + i 1));
              (* enum dispatch *)
              "e" <-- (mem (v "base" + i 2) % i 4);
              If
                ( v "e" = i 0,
                  [ "acc" <-- (v "acc" + i 5) ],
                  [
                    If
                      ( v "e" = i 1,
                        [ "acc" <-- (v "acc" + mem (v "base")) ],
                        [
                          If (v "e" = i 2,
                             [ "acc" <-- (v "acc" * i 2 % i 65536) ],
                             [ "acc" <-- (v "acc" - i 1) ]);
                        ] );
                  ] );
              (* string scan: trips 0..6 *)
              "p" <-- v "base";
              While (mem (v "p") <> i 0,
                [ "acc" <-- (v "acc" + i 1); "p" <-- (v "p" + i 1) ]);
            ];
          Return (Some (v "acc"));
        ];
    }

let doppler_gmti =
  let open Ast in
  Workload.make ~name:"doppler_GMTI"
    ~description:"complex multiply-accumulate over sample vectors; mul-heavy straight line"
    ~memory_words:4096
    ~init_memory:(fill_with 23 ~bound:128 ())
    {
      prog_name = "doppler_GMTI";
      params = [];
      body =
        [
          "re" <-- i 0;
          "im" <-- i 0;
          for_ "k" (i 0) (i 512)
            [
              "ar" <-- mem (v "k");
              "ai" <-- mem (i 1024 + v "k");
              "br" <-- mem (i 2048 + v "k");
              "bi" <-- mem (i 3072 + v "k");
              "re" <-- (v "re" + ((v "ar" * v "br") - (v "ai" * v "bi")));
              "im" <-- (v "im" + ((v "ar" * v "bi") + (v "ai" * v "br")));
            ];
          Return (Some (v "re" + v "im"));
        ];
    }

let init_equake_1 a =
  let rng = Rng.create 24 in
  for k = 0 to 1023 do
    a.(k) <- Rng.int rng 2048
  done;
  for k = 1024 to Array.length a - 1 do
    a.(k) <- Rng.int rng 64
  done

let equake_1 =
  let open Ast in
  Workload.make ~name:"equake_1"
    ~description:"sparse matrix-vector step: index load then data load (indirection chain)"
    ~memory_words:4096
    ~init_memory:init_equake_1
    {
      prog_name = "equake_1";
      params = [];
      body =
        [
          "acc" <-- i 0;
          for_ "k" (i 0) (i 900)
            [
              "idx" <-- mem (v "k" % i 1024);
              "acc" <-- (v "acc" + (mem (i 1024 + (v "idx" % i 3072)) * i 3));
            ];
          Return (Some (v "acc"));
        ];
    }

let fft2_gmti =
  let open Ast in
  Workload.make ~name:"fft2_GMTI"
    ~description:"radix-2 butterflies with a post-loop conditioning test (the head-dup merge case)"
    ~memory_words:2048
    ~init_memory:(fill_with 25 ~bound:512 ())
    {
      prog_name = "fft2_GMTI";
      params = [];
      body =
        [
          "acc" <-- i 0;
          for_ "k" (i 0) (i 256)
            [
              "a" <-- mem (v "k");
              "b" <-- mem (i 256 + v "k");
              Store (i 512 + v "k", v "a" + v "b");
              Store (i 768 + v "k", v "a" - v "b");
            ];
          (* post-conditioning loop with data-dependent trip *)
          "t" <-- mem (i 512);
          While (v "t" > i 0,
            [ "acc" <-- (v "acc" + v "t"); "t" <-- (v "t" >>> i 1) ]);
          for_ "k" (i 0) (i 512) [ "acc" <-- (v "acc" + mem (i 512 + v "k")) ];
          Return (Some (v "acc"));
        ];
    }

let fft4_gmti =
  let open Ast in
  Workload.make ~name:"fft4_GMTI"
    ~description:"radix-4 butterflies: larger loop body, fewer iterations"
    ~memory_words:2048
    ~init_memory:(fill_with 26 ~bound:512 ())
    {
      prog_name = "fft4_GMTI";
      params = [];
      body =
        [
          "acc" <-- i 0;
          for_ "k" (i 0) (i 128)
            [
              "a" <-- mem (v "k");
              "b" <-- mem (i 128 + v "k");
              "c" <-- mem (i 256 + v "k");
              "d" <-- mem (i 384 + v "k");
              "t0" <-- (v "a" + v "c");
              "t1" <-- (v "a" - v "c");
              "t2" <-- (v "b" + v "d");
              "t3" <-- (v "b" - v "d");
              Store (i 512 + v "k", v "t0" + v "t2");
              Store (i 640 + v "k", v "t1" + v "t3");
              Store (i 768 + v "k", v "t0" - v "t2");
              Store (i 896 + v "k", v "t1" - v "t3");
            ];
          for_ "k" (i 0) (i 512) [ "acc" <-- (v "acc" + mem (i 512 + v "k")) ];
          Return (Some (v "acc"));
        ];
    }

let forward_gmti =
  let open Ast in
  Workload.make ~name:"forward_GMTI"
    ~description:"FIR filter: outer loop with trip-8 inner for loop (front-end unroll target)"
    ~memory_words:2048
    ~init_memory:(fill_with 27 ~bound:64 ())
    {
      prog_name = "forward_GMTI";
      params = [];
      body =
        [
          "acc" <-- i 0;
          for_ "n" (i 0) (i 400)
            [
              "s" <-- i 0;
              for_ "t" (i 0) (i 8)
                [ "s" <-- (v "s" + (mem (v "n" + v "t") * mem (i 1024 + v "t"))) ];
              "acc" <-- (v "acc" + (v "s" >>> i 4));
            ];
          Return (Some (v "acc"));
        ];
    }

(* the paper's gzip_1: the whole inner-loop body fits one block after
   if-conversion + optimization, collapsing the block count *)
let gzip_1 =
  let open Ast in
  Workload.make ~name:"gzip_1"
    ~description:"longest-run scanner: small if/else diamond inside a hot while loop"
    ~memory_words:4096
    ~init_memory:(fun a ->
      let rng = Rng.create 28 in
      Array.iteri (fun k _ -> a.(k) <- Rng.int rng 3) a)
    {
      prog_name = "gzip_1";
      params = [];
      body =
        [
          "best" <-- i 0;
          "run" <-- i 0;
          "prev" <-- (i 0 - i 1);
          "p" <-- i 0;
          While
            ( v "p" < i 2000,
              [
                "c" <-- mem (v "p");
                If
                  ( v "c" = v "prev",
                    [ "run" <-- (v "run" + i 1) ],
                    [
                      If (v "run" > v "best", [ "best" <-- v "run" ], []);
                      "run" <-- i 0;
                    ] );
                "prev" <-- v "c";
                "p" <-- (v "p" + i 1);
              ] );
          Return (Some (v "best" + v "run" + v "prev"));
        ];
    }

let gzip_2 =
  let open Ast in
  Workload.make ~name:"gzip_2"
    ~description:"hash-chain probe: bounded while with an early-exit match test"
    ~memory_words:4096
    ~init_memory:(fun a ->
      let rng = Rng.create 29 in
      Array.iteri (fun k _ -> a.(k) <- Rng.int rng 2048) a)
    {
      prog_name = "gzip_2";
      params = [];
      body =
        [
          "acc" <-- i 0;
          for_ "q" (i 0) (i 300)
            [
              "chain" <-- mem (v "q");
              "tries" <-- i 0;
              While
                ( And (v "chain" <> i 0, v "tries" < i 8),
                  [
                    If (mem (v "chain" % i 4096) = v "q",
                       [ "acc" <-- (v "acc" + i 100); Break ], []);
                    "chain" <-- mem (i 2048 + (v "chain" % i 2048));
                    "tries" <-- (v "tries" + i 1);
                  ] );
              "acc" <-- (v "acc" + v "tries");
            ];
          Return (Some (v "acc"));
        ];
    }

let parser_1 =
  let open Ast in
  Workload.make ~name:"parser_1"
    ~description:"token loop with three rare (~1-3%) unpredictable branches guarding heavy work"
    ~memory_words:4096
    ~init_memory:(fill_with 30 ~bound:100000 ())
    {
      prog_name = "parser_1";
      params = [];
      body =
        [
          "acc" <-- i 0;
          for_ "k" (i 0) (i 1000)
            [
              "x" <-- mem (v "k" % i 4096);
              If (v "x" % i 97 = i 0,
                 [ "acc" <-- (v "acc" + (v "x" / i 7)) ], []);
              If (v "x" % i 89 = i 3,
                 [ "acc" <-- (v "acc" + ((v "x" * v "x") % i 1000)) ], []);
              If (v "x" % i 83 = i 7,
                 [ "acc" <-- (v "acc" - (v "x" / i 11)) ], []);
              "acc" <-- (v "acc" + (v "x" &&& i 255));
            ];
          Return (Some (v "acc"));
        ];
    }

let transpose_gmti =
  let open Ast in
  Workload.make ~name:"transpose_GMTI"
    ~description:"32x32 matrix transpose: perfect loop nest of loads and stores"
    ~memory_words:2304
    ~init_memory:(fill_with 31 ())
    {
      prog_name = "transpose_GMTI";
      params = [];
      body =
        [
          for_ "r" (i 0) (i 32)
            [
              for_ "c" (i 0) (i 32)
                [ Store (i 1024 + (v "c" * i 32) + v "r", mem ((v "r" * i 32) + v "c")) ];
            ];
          "acc" <-- i 0;
          for_ "k" (i 0) (i 1024) [ "acc" <-- (v "acc" + mem (i 1024 + v "k")) ];
          Return (Some (v "acc"));
        ];
    }

let twolf_1 =
  let open Ast in
  Workload.make ~name:"twolf_1"
    ~description:"placement cost scan: absolute differences with a rare best-update branch"
    ~memory_words:4096
    ~init_memory:(fill_with 32 ~bound:1024 ())
    {
      prog_name = "twolf_1";
      params = [];
      body =
        [
          "best" <-- i 1000000;
          "acc" <-- i 0;
          for_ "cell" (i 0) (i 700)
            [
              "x" <-- mem (v "cell");
              "y" <-- mem (i 1024 + v "cell");
              "dx" <-- (v "x" - v "y");
              If (v "dx" < i 0, [ "dx" <-- (i 0 - v "dx") ], []);
              "cost" <-- (v "dx" + (v "x" &&& i 15));
              If (v "cost" < v "best", [ "best" <-- v "cost" ], []);
              "acc" <-- (v "acc" + v "cost");
            ];
          Return (Some (v "acc" + v "best"));
        ];
    }

let twolf_3 =
  let open Ast in
  Workload.make ~name:"twolf_3"
    ~description:"swap evaluation: two moderately-biased branches and an accumulation"
    ~memory_words:4096
    ~init_memory:(fill_with 33 ~bound:512 ())
    {
      prog_name = "twolf_3";
      params = [];
      body =
        [
          "gain" <-- i 0;
          for_ "s" (i 0) (i 800)
            [
              "a" <-- mem (v "s" % i 2048);
              "b" <-- mem (i 2048 + (v "s" % i 2048));
              "delta" <-- (v "a" - v "b");
              If
                ( v "delta" > i 0,
                  [ "gain" <-- (v "gain" + v "delta") ],
                  [
                    If (v "delta" < i (-64),
                       [ "gain" <-- (v "gain" - i 1) ], []);
                  ] );
            ];
          Return (Some (v "gain"));
        ];
    }

(** All 24 microbenchmarks, in the paper's Table 1 order. *)
let all : Workload.t list =
  [
    ammp_1;
    ammp_2;
    art_1;
    art_2;
    art_3;
    bzip2_1;
    bzip2_2;
    bzip2_3;
    dct8x8;
    dhry;
    doppler_gmti;
    equake_1;
    fft2_gmti;
    fft4_gmti;
    forward_gmti;
    gzip_1;
    gzip_2;
    matrix_1;
    parser_1;
    sieve;
    transpose_gmti;
    twolf_1;
    twolf_3;
    vadd;
  ]

(* ---- store-dense stress kernels (not part of the 24) ------------------- *)

(* Dense store runs drive a merged-block estimate into the 32-slot
   load/store budget well before the 128-instruction budget — the regime
   where the constraint pre-filter's sound store-count floor can prove a
   merge oversized without trialling it.  The shipped 24 kernels never
   reach that regime (their rejects are all instruction-budget driven,
   see DESIGN.md §12), so these ride along in the serve-miss benchmark,
   [make trace-check] and the pre-filter regression test rather than in
   [all]. *)
let store_burst name ~stores ~trip seed =
  let open Ast in
  Workload.make ~name
    ~description:
      (Printf.sprintf
         "%d stores per iteration, trip %d; unrolled estimates hit the \
          load/store budget, exercising the constraint pre-filter"
         stores trip)
    ~memory_words:8192
    ~init_memory:(fill_with seed ())
    {
      prog_name = name;
      params = [];
      body =
        [
          for_ "k" (i 0) (i trip)
            (List.init stores (fun j ->
                 Store (i (Int.mul 256 j) + v "k", v "k" + i j)));
          Return (Some (v "k"));
        ];
    }

(** Store-dense pre-filter stress kernels; separate from {!all} so the
    24-kernel tables stay exactly the paper's set. *)
let store_dense : Workload.t list =
  [
    store_burst "fill12" ~stores:12 ~trip:200 13;
    store_burst "fill16" ~stores:16 ~trip:150 17;
  ]

let by_name name =
  List.find_opt (fun w -> w.Workload.name = name) (all @ store_dense)
