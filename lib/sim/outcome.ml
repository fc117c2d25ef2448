type t = {
  energy : float;
  deadline_misses : int;
  shed_instances : int;
  finish_times : float array array;
  consumed : float array;
}
