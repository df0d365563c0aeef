type entry = { label : string; network_model : string; files : string list; loc : int }

let is_counted line =
  let line = String.trim line in
  String.length line > 0
  && not (String.length line >= 2 && String.sub line 0 2 = "(*" && String.length line >= 2
          && String.sub line (String.length line - 2) 2 = "*)")

(* Non-blank, non-comment-only lines of one file; [None] if unreadable. *)
let count_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let count = ref 0 in
    (try
       while true do
         if is_counted (input_line ic) then incr count
       done
     with End_of_file -> ());
    close_in ic;
    Some !count

let count_files ~root files =
  List.fold_left
    (fun acc file ->
      match count_file (Filename.concat root file) with Some c -> acc + c | None -> acc)
    0 files

let proto_dir = "lib/protocols/"

(* Shared substrate files are attributed to every protocol that uses them,
   weighted nowhere — like the paper, each row counts the files specific to
   that protocol plus its share of a dedicated common core. *)
let table1_spec =
  [
    ("ADD+v1", "synchronous", [ "add_v1.ml"; "add_common.ml" ]);
    ("ADD+v2", "synchronous", [ "add_v2.ml"; "add_common.ml" ]);
    ("ADD+v3", "synchronous", [ "add_v3.ml"; "add_common.ml" ]);
    ("Algorand Agreement", "synchronous", [ "algorand.ml" ]);
    ("Async BA", "asynchronous", [ "async_ba.ml" ]);
    ("PBFT", "partially-synchronous", [ "pbft.ml" ]);
    ("HotStuff+NS", "partially-synchronous", [ "hotstuff.ml"; "chained_core.ml"; "chain.ml" ]);
    ("LibraBFT", "partially-synchronous", [ "librabft.ml"; "chained_core.ml"; "chain.ml" ]);
  ]

let table2_spec =
  [
    ("Network Partition Attack", "partition", [ "lib/attack/partition_attack.ml" ]);
    ("ADD+ BA Static Attack", "static", [ "lib/protocols/addplus_attacks.ml" ]);
    ("ADD+ BA Adaptive Attack", "rushing + adaptive", [ "lib/protocols/addplus_attacks.ml" ]);
    ("Chaos Fault Schedules", "timed fault plan", [ "lib/attack/fault_schedule.ml" ]);
  ]

let table1 ~root =
  List.map
    (fun (label, network_model, files) ->
      let files = List.map (fun f -> proto_dir ^ f) files in
      { label; network_model; files; loc = count_files ~root files })
    table1_spec

let table2 ~root =
  List.map
    (fun (label, network_model, files) ->
      { label; network_model; files; loc = count_files ~root files })
    table2_spec

let find_root () =
  let candidate_of dir =
    let rec walk dir depth =
      if depth > 6 then None
      else if Sys.file_exists (Filename.concat dir "lib/protocols") then Some dir
      else
        let parent = Filename.dirname dir in
        if String.equal parent dir then None else walk parent (depth + 1)
    in
    walk dir 0
  in
  match candidate_of (Sys.getcwd ()) with
  | Some root -> Some root
  | None -> candidate_of (Filename.dirname Sys.executable_name)
