module antireplay/bench

go 1.24

require antireplay v0.0.0

replace antireplay => ../
