(* Shared by the service, network and client tests: wait for another
   thread or domain to reach an observable state by polling it, never
   with a fixed sleep, which is a flake on a loaded machine and wasted
   time everywhere else.  Sleeps that model elapsed time (service time,
   deadlines, breaker cooldowns, backoff) are not waits and stay. *)

(* Poll [cond] every millisecond until it holds; fail after [timeout_s]. *)
let wait_until ?(timeout_s = 5.0) what cond =
  let deadline = Unix.gettimeofday () +. timeout_s in
  while not (cond ()) do
    if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what;
    Thread.delay 0.001
  done
