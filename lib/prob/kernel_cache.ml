type stats = { hits : int; misses : int; races : int; entries : int }

let stats () =
  {
    hits = 0;
    misses = 0;
    races = 0;
    entries = Occupancy.Table.filled Occupancy.table;
  }

let clear () = Occupancy.Table.clear Occupancy.table
