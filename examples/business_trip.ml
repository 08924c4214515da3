(* Business trip (paper §5.3, Figs 8-9): the richest example —
   - parallel airline queries inside a nested compound task,
   - a mark output (toPay) released before the workflow finishes,
   - compensation (flightCancellation undoes a reserved flight when the
     hotel cannot be booked),
   - the businessReservation retry loop through its repeat outcome.

   Run with: dune exec examples/business_trip.exe *)

let user = [ ("user", Value.obj ~cls:"User" (Value.Str "fred")) ]

let narrate trace =
  List.iter
    (fun (at, ev) ->
      match ev with
      | Event.Task_started _ | Event.Task_completed _ | Event.Task_marked _
      | Event.Task_repeated _ | Event.Wf_concluded _ ->
        Format.printf "  [%8d us] %a@." at Event.pp ev
      | _ -> ())
    trace

let run label scenario =
  Format.printf "@.%s@.%s@." label (String.make (String.length label) '-');
  let tb = Testbed.make () in
  Impls.register_business_trip ~scenario tb.Testbed.registry;
  (match
     Testbed.launch_and_run tb ~script:Paper_scripts.business_trip
       ~root:Paper_scripts.business_trip_root ~inputs:user
   with
  | Ok (iid, Wstate.Wf_done { output; objects }) ->
    Format.printf "outcome: %s@." output;
    List.iter (fun (name, obj) -> Format.printf "  %s = %a@." name Value.pp_obj obj) objects;
    let marks =
      Option.fold ~none:[] (Engine.mirror tb.Testbed.engine iid)
        ~some:(fun m -> Instate.get_marks m [ "tripReservation" ])
    in
    List.iter
      (fun (name, objects) ->
        Format.printf "mark %s released early:@." name;
        List.iter (fun (n, o) -> Format.printf "  %s = %a@." n Value.pp_obj o) objects)
      marks
  | Ok (_, status) -> Format.printf "status: %a@." Wstate.pp_status status
  | Error e -> Format.printf "error: %s@." e);
  narrate (Engine.trace tb.Testbed.engine)

let () =
  run "smooth trip (first flight found, hotel books immediately)" Impls.trip_smooth;
  run "hotel full twice: flight compensated, reservation retried"
    { Impls.trip_smooth with Impls.hotel_fails_rounds = 2 };
  run "no flight anywhere: the whole reservation aborts"
    { Impls.trip_smooth with Impls.flights_found = (false, false, false) }
