module dcfail/bench

go 1.22

require dcfail v0.0.0

replace dcfail => ../
