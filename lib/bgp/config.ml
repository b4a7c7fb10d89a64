type t = {
  mrai : float;
  mrai_jitter_min : float;
  wrate : bool;
  ssld : bool;
  assertion : bool;
  ghost_flushing : bool;
  rate_limiter : Mrai.mode;
  damping : Damping.params option;
  policy : Policy.t;
}

let default =
  {
    mrai = 30.;
    mrai_jitter_min = 0.75;
    wrate = false;
    ssld = false;
    assertion = false;
    ghost_flushing = false;
    rate_limiter = Mrai.Collapse;
    damping = None;
    policy = Policy.shortest_path;
  }

let of_enhancement ?(mrai = 30.) enhancement =
  let base = { default with mrai } in
  match (enhancement : Enhancement.t) with
  | Standard -> base
  | Ssld -> { base with ssld = true }
  | Wrate -> { base with wrate = true }
  | Assertion -> { base with assertion = true }
  | Ghost_flushing -> { base with ghost_flushing = true }

let validate t =
  if not (t.mrai >= 0. && Float.is_finite t.mrai) then
    invalid_arg "Config: mrai must be finite and >= 0";
  if not (t.mrai_jitter_min > 0. && t.mrai_jitter_min <= 1.) then
    invalid_arg "Config: mrai_jitter_min outside (0, 1]";
  Option.iter Damping.validate t.damping
