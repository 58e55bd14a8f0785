module uicwelfare/bench

go 1.22

require uicwelfare v0.0.0

replace uicwelfare => ../
