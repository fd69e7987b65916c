type t = {
  symtab : Symtab.t;
  plan : Plan.t;
  kind : Storage.kind;
  stats : Dl_stats.t option;
  profile : bool;
  check_phases : bool;
  mutable extra_facts : (int * int array) list;
  mutable fact_runs : (int * int array array) list;
  mutable result : Eval.result option;
}

let create ?(kind = Storage.Btree) ?(instrument = false) ?(profile = false)
    ?(check_phases = false) program =
  let symtab = Symtab.create () in
  let plan = Plan.compile symtab program in
  {
    symtab;
    plan;
    kind;
    stats = (if instrument then Some (Dl_stats.create ()) else None);
    profile;
    check_phases;
    extra_facts = [];
    fact_runs = [];
    result = None;
  }

let pred_id_exn t name =
  match Plan.pred_id t.plan name with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Engine: unknown relation %S" name)

let add_fact t name tup =
  if t.result <> None then invalid_arg "Engine.add_fact: engine already ran";
  let p = pred_id_exn t name in
  if Array.length tup <> t.plan.Plan.arities.(p) then
    invalid_arg
      (Printf.sprintf "Engine.add_fact: %s expects arity %d, got %d" name
         t.plan.Plan.arities.(p) (Array.length tup));
  t.extra_facts <- (p, tup) :: t.extra_facts

let add_fact_run t name run =
  if t.result <> None then invalid_arg "Engine.add_fact_run: engine already ran";
  if Array.length run > 0 then begin
    let p = pred_id_exn t name in
    let arity = t.plan.Plan.arities.(p) in
    Array.iter
      (fun tup ->
        if Array.length tup <> arity then
          invalid_arg
            (Printf.sprintf "Engine.add_fact_run: %s expects arity %d, got %d"
               name arity (Array.length tup)))
      run;
    t.fact_runs <- (p, run) :: t.fact_runs
  end

let add_facts t name tups = add_fact_run t name (Array.of_list tups)
let intern t s = Symtab.intern t.symtab s

let symbol_id t s = Symtab.find_opt t.symtab s

let symbol_name t id =
  match Symtab.name t.symtab id with
  | name -> Some name
  | exception Not_found -> None

let run t pool =
  if t.result <> None then invalid_arg "Engine.run: engine already ran";
  t.result <-
    Some
      (Eval.run ~check_phases:t.check_phases ~fact_runs:t.fact_runs t.plan
         ~pool ~kind:t.kind ~stats:t.stats ~extra_facts:t.extra_facts
         ~profile:t.profile);
  t.extra_facts <- [];
  t.fact_runs <- []

let has_run t = t.result <> None

let result_exn t =
  match t.result with
  | Some r -> r
  | None -> invalid_arg "Engine: call run first"

let relation t name = (result_exn t).Eval.relations.(pred_id_exn t name)

let relation_size t name =
  Relation.cardinal (result_exn t).Eval.relations.(pred_id_exn t name)

let iter_relation t name f =
  Relation.iter (result_exn t).Eval.relations.(pred_id_exn t name) f

let relation_list t name =
  let acc = ref [] in
  iter_relation t name (fun tup -> acc := tup :: !acc);
  List.rev !acc

let output_relations t =
  let out = ref [] in
  Array.iteri
    (fun p o -> if o then out := t.plan.Plan.pred_names.(p) :: !out)
    t.plan.Plan.outputs;
  List.rev !out

let input_relations t =
  let out = ref [] in
  Array.iteri
    (fun p i -> if i then out := t.plan.Plan.pred_names.(p) :: !out)
    t.plan.Plan.inputs;
  List.rev !out

let relations t = Array.to_list t.plan.Plan.pred_names
let relation_arity t name = t.plan.Plan.arities.(pred_id_exn t name)
let iterations t = (result_exn t).Eval.iterations
let hint_rate t =
  let r = result_exn t in
  let agg =
    Array.fold_left
      (fun acc rel ->
        match (acc, Relation.hint_counters rel) with
        | None, c -> c
        | Some (h, m), Some (h', m') -> Some (h + h', m + m')
        | Some _, None -> acc)
      None r.Eval.relations
  in
  match agg with
  | None -> None
  | Some (h, m) ->
    if h + m = 0 then Some 0.0
    else Some (float_of_int h /. float_of_int (h + m))

let tree_shapes t =
  let r = result_exn t in
  Array.to_list r.Eval.relations
  |> List.filter_map (fun rel ->
         match Relation.shape rel with
         | Some s when s.Tree_shape.nodes > 0 -> Some (Relation.name rel, s)
         | _ -> None)

let hint_run_hist t =
  let r = result_exn t in
  Array.fold_left
    (fun acc rel -> Storage.Index.merge_runs acc (Relation.hint_runs rel))
    None r.Eval.relations

let stats t = Option.map Dl_stats.snapshot t.stats
let rule_profile t = (result_exn t).Eval.profile
let kind t = t.kind
