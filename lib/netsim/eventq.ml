(* Calendar-queue event queue: a timing wheel of [wheel_slots] buckets
   (granularity [1 lsl slot_bits] ns) over preallocated arena storage,
   with a binary min-heap spill for events beyond the wheel's window.

   Entries live in parallel arrays ([e_time]/[e_seq]/[e_next]/[e_val])
   linked through an intrusive free list, so steady-state push/pop
   allocates nothing — the arena only grows (by doubling) when more
   events are simultaneously pending than ever before.

   Invariants:
   - a wheel bucket [s land wheel_mask] holds exactly the entries whose
     absolute slot ([time asr slot_bits]) is [s], for [s] in
     [wbase, wbase + wheel_slots);
   - [wbase] never passes the slot of the last taken event: it moves
     forward only when [pop]/[pop_nth] (or the [ready_count] that
     precedes [pop_nth]) finds the wheel drained, and then jumps to the
     slot of the heap minimum — the event about to be taken. [peek_time]
     and [push] into an empty queue never move it forward. A push at or
     after the last taken time (every engine push) therefore lands at or
     above [wbase]; only an earlier push, legal for a standalone queue,
     forces a [rebase];
   - the heap holds exactly the entries with slot >= wbase + wheel_slots,
     so a slot's entries are never split across the two structures and
     the wheel minimum is always the global minimum;
   - each bucket's list is sorted by (time, seq), so equal-time entries
     form a contiguous head run in insertion order — the documented
     tie-break contract — and pushes at the tail (monotone times, or
     same-time bursts, the common case) append in O(1);
   - [cursor] (wbase <= cursor) lower-bounds the minimum occupied slot;
     pops slide it forward, a push below it pulls it back. *)

let slot_bits = 12 (* 4096 ns per slot *)
let wheel_slots = 2048 (* window = 2048 slots ~ 8.4 ms *)
let wheel_mask = wheel_slots - 1
let slot_of time = time asr slot_bits

type 'a t = {
  (* entry arena *)
  mutable e_time : int array;
  mutable e_seq : int array;
  mutable e_next : int array;
  mutable e_val : 'a array;  (* [||] until the first push supplies a filler *)
  mutable free : int;  (* arena free-list head; -1 = grow *)
  (* wheel *)
  bhead : int array;
  btail : int array;
  mutable wbase : int;  (* absolute slot of the window base *)
  mutable cursor : int;  (* scan position; no occupied slot below it *)
  mutable wcount : int;
  (* far-future spill: min-heap of arena indices, ordered by (time, seq) *)
  mutable heap : int array;
  mutable hsize : int;
  mutable size : int;
  mutable next_seq : int;
  mutable rebases : int;
}

let create () =
  {
    e_time = [||];
    e_seq = [||];
    e_next = [||];
    e_val = [||];
    free = -1;
    bhead = Array.make wheel_slots (-1);
    btail = Array.make wheel_slots (-1);
    wbase = 0;
    cursor = 0;
    wcount = 0;
    heap = [||];
    hsize = 0;
    size = 0;
    next_seq = 0;
    rebases = 0;
  }

let is_empty t = t.size = 0
let length t = t.size
let rebases t = t.rebases

let before t a b =
  t.e_time.(a) < t.e_time.(b)
  || (t.e_time.(a) = t.e_time.(b) && t.e_seq.(a) < t.e_seq.(b))

(* --- arena ---------------------------------------------------------------- *)

let grow_arena t v =
  let cap = Array.length t.e_time in
  let ncap = max 16 (2 * cap) in
  let nt = Array.make ncap 0 and ns = Array.make ncap 0 and nn = Array.make ncap (-1) in
  Array.blit t.e_time 0 nt 0 cap;
  Array.blit t.e_seq 0 ns 0 cap;
  Array.blit t.e_next 0 nn 0 cap;
  let nv = Array.make ncap (if cap = 0 then v else t.e_val.(0)) in
  Array.blit t.e_val 0 nv 0 cap;
  t.e_time <- nt;
  t.e_seq <- ns;
  t.e_next <- nn;
  t.e_val <- nv;
  for j = cap to ncap - 2 do
    nn.(j) <- j + 1
  done;
  nn.(ncap - 1) <- -1;
  t.free <- cap

let arena_alloc t ~time ~seq v =
  if t.free < 0 then grow_arena t v;
  let i = t.free in
  t.free <- t.e_next.(i);
  t.e_time.(i) <- time;
  t.e_seq.(i) <- seq;
  t.e_next.(i) <- -1;
  t.e_val.(i) <- v;
  i

let arena_free t i =
  t.e_next.(i) <- t.free;
  t.free <- i

(* --- heap spill ----------------------------------------------------------- *)

let heap_push t i =
  if t.hsize = Array.length t.heap then begin
    let bigger = Array.make (max 16 (2 * t.hsize)) i in
    Array.blit t.heap 0 bigger 0 t.hsize;
    t.heap <- bigger
  end;
  t.heap.(t.hsize) <- i;
  t.hsize <- t.hsize + 1;
  let j = ref (t.hsize - 1) in
  let continue = ref (!j > 0) in
  while !continue do
    let parent = (!j - 1) / 2 in
    if before t t.heap.(!j) t.heap.(parent) then begin
      let tmp = t.heap.(!j) in
      t.heap.(!j) <- t.heap.(parent);
      t.heap.(parent) <- tmp;
      j := parent;
      continue := !j > 0
    end
    else continue := false
  done

let heap_pop t =
  let top = t.heap.(0) in
  t.hsize <- t.hsize - 1;
  if t.hsize > 0 then begin
    t.heap.(0) <- t.heap.(t.hsize);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.hsize && before t t.heap.(l) t.heap.(!smallest) then smallest := l;
      if r < t.hsize && before t t.heap.(r) t.heap.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = t.heap.(!i) in
        t.heap.(!i) <- t.heap.(!smallest);
        t.heap.(!smallest) <- tmp;
        i := !smallest
      end
      else continue := false
    done
  end;
  top

(* --- wheel ---------------------------------------------------------------- *)

let insert_wheel t i =
  let s = slot_of t.e_time.(i) in
  let b = s land wheel_mask in
  t.wcount <- t.wcount + 1;
  if s < t.cursor then t.cursor <- s;
  let head = t.bhead.(b) in
  if head < 0 then begin
    t.bhead.(b) <- i;
    t.btail.(b) <- i;
    t.e_next.(i) <- -1
  end
  else begin
    let tl = t.btail.(b) in
    if before t tl i then begin
      (* monotone or same-time push: O(1) append *)
      t.e_next.(tl) <- i;
      t.e_next.(i) <- -1;
      t.btail.(b) <- i
    end
    else if before t i head then begin
      t.e_next.(i) <- head;
      t.bhead.(b) <- i
    end
    else begin
      let p = ref head in
      while t.e_next.(!p) >= 0 && before t t.e_next.(!p) i do
        p := t.e_next.(!p)
      done;
      t.e_next.(i) <- t.e_next.(!p);
      t.e_next.(!p) <- i;
      if t.e_next.(i) < 0 then t.btail.(b) <- i
    end
  end

(* A push below the window base: legal for a standalone queue pushed out
   of order, never reached by the engine, whose pushes are never earlier
   than its clock and so never below the last taken slot. Re-home the
   window at the new minimum and re-insert every wheel entry — entries
   now beyond the shrunk window spill to the heap. O(wheel slots). *)
let rebase t new_base =
  t.rebases <- t.rebases + 1;
  let moved = ref [] in
  for b = 0 to wheel_slots - 1 do
    let i = ref t.bhead.(b) in
    while !i >= 0 do
      let next = t.e_next.(!i) in
      moved := !i :: !moved;
      i := next
    done;
    t.bhead.(b) <- -1;
    t.btail.(b) <- -1
  done;
  t.wcount <- 0;
  t.wbase <- new_base;
  t.cursor <- new_base;
  List.iter
    (fun i ->
      if slot_of t.e_time.(i) >= t.wbase + wheel_slots then heap_push t i
      else insert_wheel t i)
    !moved

(* Advance [cursor] to the first occupied bucket. Requires [wcount > 0]. *)
let slide_cursor t =
  while t.bhead.(t.cursor land wheel_mask) < 0 do
    t.cursor <- t.cursor + 1
  done

(* Make the global minimum the head of the bucket at [cursor]. Requires
   [size > 0]; called only on the way to taking an event. If the wheel
   drained, jump the window to the heap minimum (the event about to be
   taken) and migrate everything now inside it. *)
let reposition t =
  if t.wcount = 0 then begin
    t.wbase <- slot_of t.e_time.(t.heap.(0));
    t.cursor <- t.wbase;
    let wend = t.wbase + wheel_slots in
    while t.hsize > 0 && slot_of t.e_time.(t.heap.(0)) < wend do
      insert_wheel t (heap_pop t)
    done
  end;
  slide_cursor t

(* --- public API ------------------------------------------------------------ *)

let push t ~time value =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let i = arena_alloc t ~time ~seq value in
  let s = slot_of time in
  if s < t.wbase then
    if t.size = 0 then begin
      (* nothing to re-home: lower the window for free *)
      t.wbase <- s;
      t.cursor <- s
    end
    else rebase t s;
  t.size <- t.size + 1;
  if s >= t.wbase + wheel_slots then heap_push t i else insert_wheel t i

let pop t =
  if t.size = 0 then None
  else begin
    reposition t;
    let b = t.cursor land wheel_mask in
    let i = t.bhead.(b) in
    t.bhead.(b) <- t.e_next.(i);
    if t.e_next.(i) < 0 then t.btail.(b) <- -1;
    t.wcount <- t.wcount - 1;
    t.size <- t.size - 1;
    let time = t.e_time.(i) and v = t.e_val.(i) in
    arena_free t i;
    Some (time, v)
  end

(* Answers without moving the window: a drained wheel's minimum is the
   heap top. Jumping [wbase] here would put it ahead of a clock that
   [Engine.run ~until] then stops short of, and the next near-term push
   would land below it. *)
let peek_time t =
  if t.size = 0 then None
  else if t.wcount = 0 then Some t.e_time.(t.heap.(0))
  else begin
    slide_cursor t;
    Some t.e_time.(t.bhead.(t.cursor land wheel_mask))
  end

let ready_count t =
  if t.size = 0 then 0
  else begin
    reposition t;
    let i = ref t.bhead.(t.cursor land wheel_mask) in
    let tmin = t.e_time.(!i) in
    let n = ref 0 in
    while !i >= 0 && t.e_time.(!i) = tmin do
      incr n;
      i := t.e_next.(!i)
    done;
    !n
  end

let pop_nth t k =
  if t.size = 0 || k < 0 then None
  else begin
    reposition t;
    let b = t.cursor land wheel_mask in
    let tmin = t.e_time.(t.bhead.(b)) in
    (* walk the equal-time head run (sorted by seq = insertion order) *)
    let prev = ref (-1) and i = ref t.bhead.(b) and j = ref 0 in
    while !j < k && !i >= 0 && t.e_time.(!i) = tmin do
      prev := !i;
      i := t.e_next.(!i);
      incr j
    done;
    if !i < 0 || t.e_time.(!i) <> tmin then None
    else begin
      let x = !i in
      if !prev < 0 then t.bhead.(b) <- t.e_next.(x)
      else t.e_next.(!prev) <- t.e_next.(x);
      if t.btail.(b) = x then t.btail.(b) <- !prev;  (* -1 when x was alone *)
      t.wcount <- t.wcount - 1;
      t.size <- t.size - 1;
      let time = t.e_time.(x) and v = t.e_val.(x) in
      arena_free t x;
      Some (time, v)
    end
  end
