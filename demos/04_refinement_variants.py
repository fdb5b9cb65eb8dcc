"""The four refinement variants, side by side.

Stage 2 learns a force field over suffix latents and refines the start
model's output by integrating it. Four variants share that skeleton:

  raw       force matching on a small local target, identity metric
  fused     trains through the frozen decoder plus an auxiliary head
  metric_ot adds a learned diagonal metric and a transport penalty
  residual  adds a tanh-bounded post-integration correction

This script trains each briefly at small scale and prints the shared
report table. Orderings between variants are only enforced at the full
training budget (see the test suite); the point here is the machinery.
"""

from draftflow import autoencoder as AE
from draftflow import corpus as C
from draftflow import draftprior as DP
from draftflow import flowfield as FF

SEED = 55
corpus = C.generate_corpus(seed=SEED, count=900)
train, val = corpus[:800], corpus[800:]
vocab = C.GrammarConfig().vocabulary()

print("training stage 1 and the start model ...")
ae, _ = AE.train_stage1(
    train, AE.AEConfig(vocab_size=vocab.size, d=16, seed=SEED),
    AE.StageOneTrainConfig(steps=250, val_count=100, seed=SEED))
prior, _, _ = DP.train_draftprior(
    ae, train, DP.DraftPriorConfig(d=16, m=ae.config.m, n=ae.config.n),
    DP.DraftPriorTrainConfig(steps=400, val_count=100, seed=SEED))

cfg = FF.Stage2Config(steps=80, val_count=100, seed=SEED)
bundles = []
for variant in FF.VARIANTS:
    print(f"training stage 2 variant '{variant}' ({cfg.steps} steps) ...")
    bundles.append(FF.train_stage2(ae, prior, train, variant, cfg))

rows = FF.stage2_report(ae, prior, bundles, val, cfg)
header = f"{'variant':>10} {'ce':>8} {'p_target':>9} {'move_l2':>8} " \
         f"{'metric std':>10} {'ot_cost':>8}"
print("\n" + header)
for r in rows:
    print(f"{r['variant']:>10} {r['ce']:8.3f} {r['p_target']:9.3f} "
          f"{r['latent_move_l2']:8.3f} {r['metric_std']:10.3f} "
          f"{r['ot_cost']:8.3f}")

# the rows bracket the problem: 'start' is the unrefined start model,
# 'oracle' decodes real latents and no variant can beat it
start = rows[0]
oracle = rows[-1]
print(f"start ce {start['ce']:.3f} >= best variant >= oracle ce "
      f"{oracle['ce']:.3f}")
