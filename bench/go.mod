module sia/bench

go 1.22

require sia v0.0.0

replace sia => ../
