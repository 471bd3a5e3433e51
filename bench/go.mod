module logmob/bench

go 1.24

require logmob v0.0.0

replace logmob => ../
