(* The analyzer driver: parse every [.ml] file with the compiler's own
   parser (via ppxlib's version-stable AST), run the per-file rule
   families, build the whole-program call graph, run the
   interprocedural passes over it, and aggregate findings plus
   per-rule suppression counts.

   Everything is purely syntactic — no type information — which is
   what makes the tool fast enough for a per-PR CI gate and keeps it
   honest: each rule documents the over- and under-approximations it
   makes, and the annotation vocabulary exists precisely to record the
   cases the syntax cannot prove. *)

exception Parse_error of string

type outcome = {
  findings : Finding.t list;  (** sorted by file, line, column *)
  suppressed : (Finding.rule * int) list;  (** every rule present, in order *)
  files : int;
}

let parse ~filename source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf filename;
  try Ppxlib.Parse.implementation lexbuf
  with exn ->
    raise
      (Parse_error (Printf.sprintf "%s: %s" filename (Printexc.to_string exn)))

let zero_counts () = List.map (fun r -> (r, 0)) Finding.all_rules

let bump counts r =
  List.map (fun (r', n) -> if r' = r then (r', n + 1) else (r', n)) counts

(* The full pipeline over a set of already-read sources.  Per-file
   rules see each file alone; the call graph is built from every file
   at once and the interprocedural passes run over it.  The optional
   stale-manifest validation is only meaningful when the file set is
   the real tree (the CLI), not an in-memory fixture, so it is off by
   default. *)
let analyze_sources ?(manifest = Manifest.empty) ?(stale_check = false) sources
    =
  let parsed =
    List.map (fun (filename, src) -> (filename, parse ~filename src)) sources
  in
  let findings = ref [] in
  let suppressed = ref (zero_counts ()) in
  let sink =
    {
      Sink.report =
        (fun rule loc message ->
          findings := Finding.of_loc ~rule ~message loc :: !findings);
      suppress = (fun rule -> suppressed := bump !suppressed rule);
    }
  in
  List.iter
    (fun (filename, str) ->
      Rule_domain.check sink str;
      Rule_alloc.check sink str;
      if Manifest.is_boundary manifest filename then Rule_exn.check sink str;
      if Manifest.in_telemetry_dir manifest filename then
        Rule_telemetry.check sink str;
      Rule_telemetry.check_span_pairing sink str)
    parsed;
  let g = Callgraph.build parsed in
  Rule_alloc.check_graph sink g;
  Rule_exn.check_graph sink ~manifest g;
  Rule_blocking.check_graph sink g;
  Rule_lockorder.check_graph sink ~manifest g;
  Rule_width.check_graph sink g;
  if stale_check then
    List.iter
      (fun entry ->
        let loc = Ppxlib.Location.in_file "bdlint.manifest" in
        sink.report Finding.Manifest_stale loc
          (Printf.sprintf
             "manifest entry '%s' matches no analyzed file; delete it or fix \
              the path"
             entry))
      (Manifest.stale_entries manifest ~files:(List.map fst sources));
  {
    findings = List.sort Finding.compare_locs !findings;
    suppressed = !suppressed;
    files = List.length sources;
  }

let analyze_source ?manifest ~filename source =
  analyze_sources ?manifest [ (filename, source) ]

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let analyze_file ?manifest path =
  analyze_source ?manifest ~filename:path (read_file path)

let merge a b =
  {
    findings = List.merge Finding.compare_locs a.findings b.findings;
    suppressed =
      List.map
        (fun (r, n) ->
          (r, n + (try List.assoc r b.suppressed with Not_found -> 0)))
        a.suppressed;
    files = a.files + b.files;
  }

let empty_outcome = { findings = []; suppressed = zero_counts (); files = 0 }

let analyze_files ?manifest paths =
  analyze_sources ?manifest ~stale_check:true
    (List.map (fun p -> (p, read_file p)) paths)

let finding_counts outcome =
  List.map
    (fun r ->
      (r, List.length (List.filter (fun f -> f.Finding.rule = r) outcome.findings)))
    Finding.all_rules

(* ------------------------------------------------------------------ *)
(* Renderings *)

let to_text outcome =
  let buf = Buffer.create 1024 in
  List.iter
    (fun f ->
      Buffer.add_string buf (Finding.to_string f);
      Buffer.add_char buf '\n')
    outcome.findings;
  Buffer.contents buf

let gating_findings outcome =
  List.filter (fun f -> Finding.gating f.Finding.rule) outcome.findings

(* One line per rule family, then the overall tally.  Every rule is
   printed, zeros included, so the block is a fixed-shape table a CI
   log diff can be read against. *)
let summary outcome =
  let counts = finding_counts outcome in
  let buf = Buffer.create 256 in
  List.iter
    (fun (r, n) ->
      let s = try List.assoc r outcome.suppressed with Not_found -> 0 in
      Buffer.add_string buf
        (Printf.sprintf "  %-15s %3d finding%s %3d suppression%s%s\n"
           (Finding.rule_id r) n
           (if n = 1 then " " else "s")
           s
           (if s = 1 then " " else "s")
           (if Finding.gating r then "" else "  (non-gating)")))
    counts;
  let total = List.length outcome.findings in
  let gating = List.length (gating_findings outcome) in
  let sup = List.fold_left (fun a (_, n) -> a + n) 0 outcome.suppressed in
  Buffer.add_string buf
    (Printf.sprintf "bdlint: %d file%s, %d finding%s (%d gating), %d \
                     suppression%s"
       outcome.files
       (if outcome.files = 1 then "" else "s")
       total
       (if total = 1 then "" else "s")
       gating sup
       (if sup = 1 then "" else "s"));
  Buffer.contents buf

let counts_json counts =
  "{"
  ^ String.concat ","
      (List.map
         (fun (r, n) -> Printf.sprintf "\"%s\":%d" (Finding.rule_id r) n)
         counts)
  ^ "}"

let to_json outcome =
  Printf.sprintf
    {|{"files_scanned":%d,"findings":[%s],"counts":%s,"suppressed":%s}|}
    outcome.files
    (String.concat "," (List.map Finding.to_json outcome.findings))
    (counts_json (finding_counts outcome))
    (counts_json outcome.suppressed)
