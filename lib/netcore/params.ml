type t = {
  link_delay : float;
  proc_delay_min : float;
  proc_delay_max : float;
  ttl : int;
  pkt_rate : float;
}

let default =
  {
    link_delay = 0.002;
    proc_delay_min = 0.1;
    proc_delay_max = 0.5;
    ttl = 128;
    pkt_rate = 10.;
  }

let validate t =
  if not (t.link_delay > 0. && Float.is_finite t.link_delay) then
    invalid_arg "Params: link_delay must be finite and > 0";
  if
    not (Float.is_finite t.proc_delay_min && Float.is_finite t.proc_delay_max)
  then invalid_arg "Params: processing delays must be finite";
  if not (t.proc_delay_min >= 0.) then
    invalid_arg "Params: proc_delay_min < 0";
  if not (t.proc_delay_max >= t.proc_delay_min) then
    invalid_arg "Params: proc_delay_max < proc_delay_min";
  if t.ttl <= 0 then invalid_arg "Params: ttl <= 0";
  if not (t.pkt_rate > 0. && Float.is_finite t.pkt_rate) then
    invalid_arg "Params: pkt_rate must be finite and > 0"

let pp fmt t =
  Format.fprintf fmt
    "link=%gs proc=U(%g,%g)s ttl=%d rate=%g/s"
    t.link_delay t.proc_delay_min t.proc_delay_max t.ttl t.pkt_rate
