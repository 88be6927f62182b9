(* Public-surface checker: every value a library interface exports must
   have a caller in some other compilation unit.

   Usage: scan.exe ALLOWLIST LIBDIR [DIR ...]

   Exports are the values declared in the .cmti files under LIBDIR. Uses
   are read from the .cmt files under LIBDIR and every DIR (dune writes
   them for the @check alias). A use is any identifier that names the
   value after module aliases are resolved, and a module passed whole to
   a functor, packed as a first-class module or included counts as a use
   of all its values. A unit's uses of its own exports do not count.

   ALLOWLIST holds one entry per line, "Lib.Module.value: reason";
   blank lines and lines starting with '#' are ignored. The scan fails
   (exit 1) on an exported value with no caller that is not allowlisted,
   and on a stale entry: one whose value now has a caller or is no
   longer exported. *)

let rec files_under dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then files_under path else [ path ])

(* "Netsim__Eventq" -> "Netsim.Eventq" *)
let display path =
  let rec split s =
    let n = String.length s in
    let rec find i =
      if i + 2 >= n then None
      else if s.[i] = '_' && s.[i + 1] = '_' && i > 0 then Some i
      else find (i + 1)
    in
    match find 0 with
    | Some i -> String.sub s 0 i :: split (String.sub s (i + 2) (n - i - 2))
    | None -> [ s ]
  in
  String.concat "." (List.concat_map split path)

(* ---- exports ---- *)

type export = { path : string list; loc : Location.t }

let rec sig_exports prefix (sg : Types.signature) =
  List.concat_map
    (function
      | Types.Sig_value (id, vd, Exported) ->
          [ { path = prefix @ [ Ident.name id ]; loc = vd.val_loc } ]
      | Sig_module (id, _, { md_type = Mty_signature sg; _ }, _, Exported) ->
          sig_exports (prefix @ [ Ident.name id ]) sg
      | _ -> [])
    sg

(* ---- uses ---- *)

(* Module paths that name another module: "unit.M" -> target path. *)
let aliases : (string list, string list) Hashtbl.t = Hashtbl.create 256

(* (unit, normalized path) of each value reference *)
let value_uses : (string * string list) list ref = ref []

(* (unit, normalized module path) of each module used whole *)
let module_uses : (string * string list) list ref = ref []

(* Replace each prefix that is a module alias by its target, left to
   right: "Scallop.Controller.join" -> "Scallop__Controller.join". *)
let rec resolve path =
  List.fold_left
    (fun pre s ->
      let p = pre @ [ s ] in
      match Hashtbl.find_opt aliases p with
      | Some target when target <> p -> resolve target
      | _ -> p)
    [] path

let scan_impl unit (str : Typedtree.structure) =
  (* local module idents -> their own path in this unit *)
  let locals = Hashtbl.create 16 in
  let prefix = ref [ unit ] in
  let rec flatten (p : Path.t) =
    match p with
    | Pident id when Ident.global id -> Some [ Ident.name id ]
    | Pident id -> Hashtbl.find_opt locals (Ident.unique_name id)
    | Pdot (p, s) -> Option.map (fun l -> l @ [ s ]) (flatten p)
    | Papply _ | Pextra_ty _ -> None
  in
  let rec mod_ident (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> flatten p
    | Tmod_constraint (me, _, _, _) -> mod_ident me
    | _ -> None
  in
  let use_value p =
    Option.iter (fun l -> value_uses := (unit, l) :: !value_uses) (flatten p)
  in
  let use_module me =
    Option.iter (fun l -> module_uses := (unit, l) :: !module_uses) (mod_ident me)
  in
  let bind id name me =
    let own = !prefix @ [ name ] in
    Option.iter (fun id -> Hashtbl.replace locals (Ident.unique_name id) own) id;
    Option.iter (fun target -> Hashtbl.replace aliases own target) (mod_ident me);
    own
  in
  let open Tast_iterator in
  let iter =
    {
      default_iterator with
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_ident (p, _, _) -> use_value p
          | Texp_letop { let_; ands; _ } ->
              List.iter
                (fun (b : Typedtree.binding_op) -> use_value b.bop_op_path)
                (let_ :: ands)
          | Texp_pack me -> use_module me
          | Texp_letmodule (id, { txt = Some name; _ }, _, me, _) ->
              ignore (bind id name me)
          | _ -> ());
          default_iterator.expr sub e);
      module_expr =
        (fun sub me ->
          (match me.mod_desc with
          | Tmod_apply (_, arg, _) -> use_module arg
          | _ -> ());
          default_iterator.module_expr sub me);
      structure_item =
        (fun sub si ->
          (match si.str_desc with
          | Tstr_include incl -> use_module incl.incl_mod
          | _ -> ());
          default_iterator.structure_item sub si);
      module_binding =
        (fun sub mb ->
          match mb.mb_name.txt with
          | None -> default_iterator.module_binding sub mb
          | Some name ->
              let saved = !prefix in
              prefix := bind mb.mb_id name mb.mb_expr;
              default_iterator.module_binding sub mb;
              prefix := saved);
    }
  in
  iter.structure iter str

(* ---- allowlist ---- *)

let read_allowlist file =
  let ic = open_in file in
  let rec loop lineno acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then loop (lineno + 1) acc
        else
          match String.index_opt line ':' with
          | Some i when String.trim (String.sub line (i + 1) (String.length line - i - 1)) <> "" ->
              loop (lineno + 1) (String.trim (String.sub line 0 i) :: acc)
          | _ ->
              Printf.printf "%s:%d: entry needs \"Lib.Module.value: reason\"\n" file lineno;
              exit 1)
  in
  loop 1 []

let () =
  let allowfile, libdir, dirs =
    match Array.to_list Sys.argv with
    | _ :: allow :: lib :: rest -> (allow, lib, lib :: rest)
    | _ ->
        prerr_endline "usage: scan.exe ALLOWLIST LIBDIR [DIR ...]";
        exit 2
  in
  let each suffix dir f =
    List.iter
      (fun file ->
        if Filename.check_suffix file suffix then f (Cmt_format.read_cmt file))
      (files_under dir)
  in
  let exports = ref [] in
  each ".cmti" libdir (fun cmt ->
      match cmt.cmt_annots with
      | Interface sg ->
          exports := !exports @ sig_exports [ cmt.cmt_modname ] sg.sig_type
      | _ -> ());
  let exports = !exports in
  List.iter
    (fun dir ->
      each ".cmt" dir (fun cmt ->
          match cmt.cmt_annots with
          | Implementation str -> scan_impl cmt.cmt_modname str
          | _ -> ()))
    dirs;
  let callers = Hashtbl.create 4096 in
  List.iter (fun (u, p) -> Hashtbl.add callers (resolve p) u) !value_uses;
  let whole = List.map (fun (u, p) -> (u, resolve p)) !module_uses in
  let rec is_prefix a b =
    match (a, b) with
    | [], _ -> true
    | x :: a, y :: b -> x = y && is_prefix a b
    | _ -> false
  in
  let has_caller e =
    let unit = List.hd e.path in
    List.exists (fun u -> u <> unit) (Hashtbl.find_all callers e.path)
    || List.exists (fun (u, p) -> u <> unit && is_prefix p e.path) whole
  in
  let allow = read_allowlist allowfile in
  let by_name = Hashtbl.create 1024 in
  List.iter (fun e -> Hashtbl.replace by_name (display e.path) e) exports;
  let errors = ref 0 in
  let allowed = Hashtbl.create 16 in
  List.iter
    (fun name ->
      Hashtbl.replace allowed name ();
      match Hashtbl.find_opt by_name name with
      | None ->
          incr errors;
          Printf.printf "stale allowlist entry: %s is not exported\n" name
      | Some e when has_caller e ->
          incr errors;
          Printf.printf "stale allowlist entry: %s has a caller\n" name
      | Some _ -> ())
    allow;
  List.iter
    (fun e ->
      let name = display e.path in
      if (not (Hashtbl.mem allowed name)) && not (has_caller e) then begin
        incr errors;
        Printf.printf "unused export: %s (%s:%d)\n" name e.loc.loc_start.pos_fname
          e.loc.loc_start.pos_lnum
      end)
    exports;
  if !errors > 0 then begin
    Printf.printf "%d exported values, %d allowlisted, %d problems\n"
      (List.length exports) (List.length allow) !errors;
    exit 1
  end
