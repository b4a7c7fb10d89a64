(* Epoch workload generation: a continuous up-down-flap event stream,
   one epoch at a time, expressed through the faults DSL.

   Every epoch draws a Poisson-distributed number of churn events —
   paired link fail/recover flaps, session resets, origin prefix
   flaps — all placed inside the epoch so the network drains back to
   quiescence at the boundary.  All randomness comes from the caller's
   stream, in a fixed draw order, so the schedule is a pure function
   of (workload params, graph, RNG state): checkpoint the RNG and the
   post-resume schedule is identical. *)

type t = { epoch_len : float; flap_rate : float }

let make ?(epoch_len = 300.) ?(flap_rate = 4.) () =
  if not (epoch_len > 0. && Float.is_finite epoch_len) then
    invalid_arg "Workload.make: epoch_len must be finite and positive";
  if not (0. <= flap_rate && flap_rate <= 100.) then
    invalid_arg "Workload.make: flap_rate outside [0, 100]";
  { epoch_len; flap_rate }

let epoch_len t = t.epoch_len
let flap_rate t = t.flap_rate

type action =
  | Fault of Faults.Scenario.action
  | Origin_down
  | Origin_up

type step = { at : float; action : action }

(* Knuth's product-of-uniforms sampler; fine for the rates we accept
   (exp(-100) is still comfortably above the float underflow). *)
let poisson rng lambda =
  if lambda <= 0. then 0
  else begin
    let l = exp (-.lambda) in
    let k = ref 0 and p = ref 1. in
    let continue_ = ref true in
    while !continue_ do
      incr k;
      p := !p *. Dessim.Rng.float rng 1.;
      if !p <= l then continue_ := false
    done;
    !k - 1
  end

let generate t ~graph ~rng =
  let edges = Topo.Graph.edges graph in
  let n_edges = List.length edges in
  if n_edges = 0 then invalid_arg "Workload.generate: graph has no edges";
  let edge_arr = Array.of_list edges in
  let len = t.epoch_len in
  (* events start inside [0, 0.7·len) and every paired recovery lands
     by 0.9·len, leaving the last tenth of the epoch as settle time *)
  let draw_start () = Dessim.Rng.float rng (0.7 *. len) in
  let draw_end at =
    let dur = Dessim.Rng.uniform rng ~lo:(0.02 *. len) ~hi:(0.25 *. len) in
    Float.min (at +. dur) (0.9 *. len)
  in
  let n = poisson rng t.flap_rate in
  let clauses = ref [] and origin_steps = ref [] in
  for _ = 1 to n do
    let kind = Dessim.Rng.float rng 1. in
    if kind < 0.55 then begin
      (* link flap: fail then recover, both inside the epoch *)
      let link = edge_arr.(Dessim.Rng.int rng n_edges) in
      let at = draw_start () in
      clauses :=
        Faults.Scenario.At (draw_end at, Faults.Scenario.Link_recover link)
        :: Faults.Scenario.At (at, Faults.Scenario.Link_fail link)
        :: !clauses
    end
    else if kind < 0.75 then begin
      let link = edge_arr.(Dessim.Rng.int rng n_edges) in
      clauses :=
        Faults.Scenario.At (draw_start (), Faults.Scenario.Session_reset link)
        :: !clauses
    end
    else begin
      (* origin prefix flap: T_down then T_up, the paper's event pair *)
      let at = draw_start () in
      origin_steps :=
        { at = draw_end at; action = Origin_up }
        :: { at; action = Origin_down }
        :: !origin_steps
    end
  done;
  let scenario = Faults.Scenario.make ~name:"churn-epoch" (List.rev !clauses) in
  let fault_steps =
    Faults.Scenario.compile scenario ~graph ~rng
    |> List.map (fun { Faults.Scenario.at; action } ->
           { at; action = Fault action })
  in
  List.stable_sort
    (* bgpsim-lint: allow D004 — Float.compare as a total order; ties stay stable *)
    (fun a b -> Float.compare a.at b.at)
    (fault_steps @ List.rev !origin_steps)
