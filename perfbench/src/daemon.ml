(* bdprintd measured from outside: spawned on loopback and driven
   through raw protocol sockets, which bypass Net.Client, or through
   the client itself. *)

type t = {
  pid : int;
  out : Unix.file_descr;  (** the daemon's stdout, kept open until reaped *)
  addr : string;
}

let handshake = "bdprintd: listening on "

(* Spawns the daemon and waits for its [listening on ADDR] handshake. *)
let spawn ~exe ~args ~stderr_path =
  let r, w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile stderr_path
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid = Proc.spawn ~exe ~args ~stdin:null ~stdout:w ~stderr:err in
  Unix.close w;
  Unix.close err;
  Unix.close null;
  let b = Buffer.create 64 and c = Bytes.create 1 in
  let rec line () =
    if Proc.read_retry r c 0 1 = 0 then Buffer.contents b
    else if Bytes.get c 0 = '\n' then Buffer.contents b
    else begin
      Buffer.add_char b (Bytes.get c 0);
      line ()
    end
  in
  let l = line () in
  let hl = String.length handshake in
  if String.length l <= hl || String.sub l 0 hl <> handshake then
    failwith (Printf.sprintf "bdprintd did not start (stdout: %S)" l);
  { pid; out = r; addr = String.sub l hl (String.length l - hl) }

(* SIGTERM (graceful drain), then reap; returns the exit status. *)
let stop d =
  let status = Proc.terminate d.pid in
  Unix.close d.out;
  status

let client_addr d =
  match Net.Client.parse_addr d.addr with
  | Ok a -> a
  | Error e -> failwith ("bdprintd address: " ^ Robust.Error.to_string e)

(* {2 Raw protocol sockets, bypassing the client} *)

module Raw = struct
  type conn = {
    fd : Unix.file_descr;
    buf : Bytes.t;
    mutable pos : int;
    mutable len : int;
  }

  let connect d =
    match client_addr d with
    | Net.Client.Tcp (host, port) ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      { fd; buf = Bytes.create 65536; pos = 0; len = 0 }
    | Net.Client.Unix_path _ -> failwith "expected a TCP address"

  let rec fill c =
    if c.pos >= c.len then begin
      let n = Proc.read_retry c.fd c.buf 0 (Bytes.length c.buf) in
      if n = 0 then failwith "bdprintd closed the connection";
      c.pos <- 0;
      c.len <- n;
      fill c
    end

  let line c =
    let acc = Buffer.create 32 in
    let rec go () =
      fill c;
      match Bytes.index_from_opt c.buf c.pos '\n' with
      | Some i when i < c.len ->
        Buffer.add_subbytes acc c.buf c.pos (i - c.pos);
        c.pos <- i + 1;
        Buffer.contents acc
      | _ ->
        Buffer.add_subbytes acc c.buf c.pos (c.len - c.pos);
        c.pos <- c.len;
        go ()
    in
    go ()

  let request c frame =
    Proc.write_all c.fd frame 0 (String.length frame);
    line c

  (* A length-framed payload reply (STATS, METRICS). *)
  let payload c verb =
    let header = request c (verb ^ "\n") in
    match Net.Wire.payload_length header with
    | None -> failwith ("bad payload header: " ^ header)
    | Some n ->
      let body = Bytes.create n in
      let rec copy got =
        if got < n then begin
          fill c;
          let k = min (n - got) (c.len - c.pos) in
          Bytes.blit c.buf c.pos body got k;
          c.pos <- c.pos + k;
          copy (got + k)
        end
      in
      copy 0;
      ignore (line c);
      Bytes.to_string body

  let close c = try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ()
end

(* {2 Reading the daemon's own reports} *)

(* Integer field of the flat STATS JSON object. *)
let stats_field json key =
  let needle = "\"" ^ key ^ "\":" in
  let nl = String.length needle and jl = String.length json in
  let rec find i =
    if i + nl > jl then None
    else if String.sub json i nl = needle then Some (i + nl)
    else find (i + 1)
  in
  match find 0 with
  | None -> 0
  | Some s ->
    let e = ref s in
    while !e < jl && match json.[!e] with '0' .. '9' -> true | _ -> false do
      incr e
    done;
    if !e > s then int_of_string (String.sub json s (!e - s)) else 0

(* Median of one stage of the [bdprint_stage_duration_ns] histogram in a
   Prometheus text snapshot: the upper bound of the bucket holding the
   middle observation, in microseconds.  [None] when the stage has no
   observations. *)
let stage_p50_us prom stage =
  let prefix = "bdprint_stage_duration_ns_bucket{" in
  let tag = Printf.sprintf "stage=\"%s\"" stage in
  let buckets =
    String.split_on_char '\n' prom
    |> List.filter_map (fun l ->
           let pl = String.length prefix in
           if String.length l > pl && String.sub l 0 pl = prefix then
             match String.index_opt l '}' with
             | Some close ->
               let labels = String.sub l pl (close - pl) in
               let contains s sub =
                 let n = String.length sub in
                 let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
                 at 0
               in
               if not (contains labels tag) then None
               else
                 let le =
                   List.find_map
                     (fun kv ->
                       match String.split_on_char '=' kv with
                       | [ "le"; v ] -> Some (String.concat "" (String.split_on_char '"' v))
                       | _ -> None)
                     (String.split_on_char ',' labels)
                 in
                 let rest = String.trim (String.sub l (close + 1) (String.length l - close - 1)) in
                 let count =
                   match String.split_on_char ' ' rest with
                   | c :: _ -> float_of_string_opt c
                   | [] -> None
                 in
                 (match (le, count) with
                 | Some le, Some c -> Some ((if le = "+Inf" then Float.infinity else float_of_string le), c)
                 | _ -> None)
             | None -> None
           else None)
    |> List.sort compare
  in
  match List.rev buckets with
  | [] -> None
  | (_, total) :: _ when total <= 0. -> None
  | (_, total) :: _ ->
    List.find_map (fun (le, c) -> if c >= total /. 2. then Some (le /. 1000.) else None) buckets
