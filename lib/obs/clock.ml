external monotonic_seconds : unit -> float = "mae_obs_monotonic_seconds"

let monotonic () = monotonic_seconds ()
let wall = Unix.gettimeofday

(* Offset sampled once at startup: wall readings drift / step relative
   to the monotonic clock, but for display purposes (trace timestamps,
   capture times) a fixed offset is exactly what we want -- converted
   timestamps keep the monotonic ordering. *)
let epoch_wall = wall ()
let epoch_mono = monotonic ()
let wall_of_monotonic m = epoch_wall +. (m -. epoch_mono)
