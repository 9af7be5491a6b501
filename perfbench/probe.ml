(* Host-speed probe: fixed allocation-heavy OCaml work, run in a fresh
   process so that nothing the measured program keeps on its heap can
   change the probe's own garbage-collection cost. Prints the median
   time, in milliseconds, of the last five of seven rounds. *)

module Int_map = Map.Make (Int)

let round () =
  let t0 = Unix.gettimeofday () in
  let acc = ref 0 in
  for r = 1 to 40 do
    let l = List.init 2000 (fun i -> i * r) in
    let m = List.fold_left (fun m x -> Int_map.add (x land 1023) x m) Int_map.empty l in
    acc := !acc + Int_map.cardinal m + List.length (List.rev_map succ l)
  done;
  ignore (Sys.opaque_identity !acc);
  Unix.gettimeofday () -. t0

let () =
  let times = Array.init 7 (fun _ -> round ()) in
  let warm = Array.sub times 2 5 in
  Array.sort Float.compare warm;
  Printf.printf "%.6f\n" (warm.(2) *. 1000.0)
