module tempart/bench

go 1.22

require tempart v0.0.0

replace tempart => ../
