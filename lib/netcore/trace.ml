type t = Fib_history.t

let create ~n = Fib_history.create ~n

let fib t = t
