"""Train the one-neuron model and look at what an eavesdropper sees.

The model is y = tanh(w*x + b) with scalar w and b, fitted by
full-batch gradient descent on MSE.  Every epoch the current (w, b) is
recorded *before* the update, which is exactly the information a party
in a parameter-broadcasting protocol would observe.
"""

from traceinv import Dataset, Params, TrainConfig, dumps_trace, loads_trace, train

data = Dataset(xs=[0.6, 0.2, 0.8], ys=[0.5, 0.4, 0.55])
cfg = TrainConfig(eta=0.1, epochs=6, init=Params(0.5, 0.5))

trace = train(data, cfg, debug=True)

print(f"trained on n={data.n} instances, eta={cfg.eta}, {cfg.epochs} epochs\n")
print("epoch   w          b          loss")
for j in range(trace.epochs):
    print(f"{j:>5}   {trace.ws[j]:.6f}   {trace.bs[j]:.6f}   {trace.debug.loss[j]:.6f}")

# The trace serializes to a small line-oriented text file.  The default
# rendering is lossless: reloading gives bit-identical floats.
text = dumps_trace(trace)
print("\nserialized trace:\n")
print(text)
assert loads_trace(text) == trace
print("round trip is bit-exact")

# A lower-precision observer can be simulated at save time.
print("\nsame trace at 7 significant digits:\n")
print(dumps_trace(trace, digits=7))
