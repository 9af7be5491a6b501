type t = { mutable items : int array; mutable len : int }

let create () = { items = Array.make 16 0; len = 0 }

let push t x =
  if t.len = Array.length t.items then begin
    let grown = Array.make (2 * t.len) 0 in
    Array.blit t.items 0 grown 0 t.len;
    t.items <- grown
  end;
  t.items.(t.len) <- x;
  t.len <- t.len + 1
